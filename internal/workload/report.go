package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// SLO declares the budgets a scenario is graded against. Zero-valued
// fields are ungraded (a scenario with no SLO always passes on
// budgets; contract violations still fail it).
type SLO struct {
	// Latency budgets over successful responses.
	P50  Duration `json:"p50,omitempty"`
	P99  Duration `json:"p99,omitempty"`
	P999 Duration `json:"p999,omitempty"`
	// ErrorBudget is the largest tolerable failed fraction of
	// completed requests (failed / (requests - canceled)). Note zero
	// means "no errors tolerated" only when a sibling field marks the
	// SLO non-empty; use Grade's semantics below.
	ErrorBudget float64 `json:"error_budget"`
	// ShedBudget is the largest tolerable shed (429) fraction of
	// completed requests; zero tolerates any shedding (backpressure
	// is not an error unless a scenario says so) — set it explicitly
	// to grade overload behavior.
	ShedBudget float64 `json:"shed_budget,omitempty"`
	// MinThroughputRPS is the floor on achieved successful
	// requests/second (0 = ungraded).
	MinThroughputRPS float64 `json:"min_throughput_rps,omitempty"`
}

// LatencySummary is the measured latency distribution over successful
// responses.
type LatencySummary struct {
	Count int64    `json:"count"`
	Mean  Duration `json:"mean"`
	P50   Duration `json:"p50"`
	P99   Duration `json:"p99"`
	P999  Duration `json:"p999"`
	Max   Duration `json:"max"`
}

// Result is the raw outcome of one run: what was issued, how it
// resolved, how fast. Every issued request lands in exactly one of
// OK/Shed/Failed/Canceled.
type Result struct {
	Scenario       string         `json:"scenario"`
	Seed           uint64         `json:"seed"`
	ScheduleDigest string         `json:"schedule_digest"`
	Requests       int64          `json:"requests"`
	OK             int64          `json:"ok"`
	Shed           int64          `json:"shed"`
	Failed         int64          `json:"failed"`
	Canceled       int64          `json:"canceled"`
	ViolationCount int64          `json:"violation_count"`
	Violations     []string       `json:"violations,omitempty"`
	Latency        LatencySummary `json:"latency"`
	Elapsed        Duration       `json:"elapsed"`
	ThroughputRPS  float64        `json:"throughput_rps"`
}

// completed is the grading denominator: every request whose outcome
// the server owns. Canceled requests are the client's choice and
// count against nobody.
func (r *Result) completed() int64 {
	n := r.Requests - r.Canceled
	if n < 0 {
		return 0
	}
	return n
}

// Check is one graded budget: what was observed, what was allowed,
// and whether it held.
type Check struct {
	Name     string `json:"name"`
	Observed string `json:"observed"`
	Budget   string `json:"budget"`
	Pass     bool   `json:"pass"`
}

// Verdict is the graded outcome of a run: the result, the checks, and
// the overall pass/fail a CI gate or exit code keys off.
type Verdict struct {
	Scenario string  `json:"scenario"`
	Pass     bool    `json:"pass"`
	Checks   []Check `json:"checks"`
	Result   *Result `json:"result"`
}

// Grade evaluates a result against an SLO. The contract check
// (violation_count == 0) is always graded; latency percentiles,
// error/shed budgets and throughput only when declared.
func Grade(res *Result, slo SLO) *Verdict {
	v := &Verdict{Scenario: res.Scenario, Pass: true, Result: res}
	add := func(c Check) {
		if !c.Pass {
			v.Pass = false
		}
		v.Checks = append(v.Checks, c)
	}

	add(Check{
		Name:     "contract",
		Observed: fmt.Sprintf("%d violation(s)", res.ViolationCount),
		Budget:   "0 violations",
		Pass:     res.ViolationCount == 0,
	})

	latency := func(name string, observed Duration, budget Duration) {
		if budget <= 0 {
			return
		}
		add(Check{
			Name:     name,
			Observed: observed.String(),
			Budget:   "<= " + budget.String(),
			Pass:     observed <= budget,
		})
	}
	latency("latency_p50", res.Latency.P50, slo.P50)
	latency("latency_p99", res.Latency.P99, slo.P99)
	latency("latency_p999", res.Latency.P999, slo.P999)

	ratio := func(name string, count int64, budget float64) {
		den := res.completed()
		rate := 0.0
		if den > 0 {
			rate = float64(count) / float64(den)
		}
		add(Check{
			Name:     name,
			Observed: fmt.Sprintf("%.2f%% (%d/%d)", rate*100, count, den),
			Budget:   fmt.Sprintf("<= %.2f%%", budget*100),
			Pass:     rate <= budget,
		})
	}
	// The error budget is always graded when the scenario declares any
	// SLO at all: "no budget named" means zero tolerance, not
	// unlimited. A completely zero SLO grades only the contract.
	if slo != (SLO{}) {
		ratio("error_budget", res.Failed, slo.ErrorBudget)
	}
	if slo.ShedBudget > 0 {
		ratio("shed_budget", res.Shed, slo.ShedBudget)
	}
	if slo.MinThroughputRPS > 0 {
		add(Check{
			Name:     "throughput",
			Observed: fmt.Sprintf("%.1f req/s", res.ThroughputRPS),
			Budget:   fmt.Sprintf(">= %.1f req/s", slo.MinThroughputRPS),
			Pass:     res.ThroughputRPS >= slo.MinThroughputRPS,
		})
	}
	return v
}

// JSON renders the verdict as indented JSON with a trailing newline —
// the machine-readable artifact (BENCH_*.json, CI uploads).
func (v *Verdict) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteTable renders the human verdict: an outcome summary, the
// latency line, and one row per check.
func (v *Verdict) WriteTable(w io.Writer) {
	res := v.Result
	fmt.Fprintf(w, "scenario %s  seed %d  schedule %.12s\n", res.Scenario, res.Seed, res.ScheduleDigest)
	fmt.Fprintf(w, "%d requests in %s  (%.1f successful req/s)\n",
		res.Requests, roundDur(res.Elapsed.D()), res.ThroughputRPS)
	fmt.Fprintf(w, "  ok %d  shed %d  failed %d  canceled %d\n",
		res.OK, res.Shed, res.Failed, res.Canceled)
	fmt.Fprintf(w, "  latency p50 %s  p99 %s  p999 %s  max %s  (n=%d)\n",
		roundDur(res.Latency.P50.D()), roundDur(res.Latency.P99.D()),
		roundDur(res.Latency.P999.D()), roundDur(res.Latency.Max.D()), res.Latency.Count)
	fmt.Fprintln(w)
	nameW, obsW := len("check"), len("observed")
	for _, c := range v.Checks {
		nameW = max(nameW, len(c.Name))
		obsW = max(obsW, len(c.Observed))
	}
	fmt.Fprintf(w, "  %-*s  %-*s  %s\n", nameW, "check", obsW, "observed", "budget")
	for _, c := range v.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %-*s  %-*s  %-18s %s\n", nameW, c.Name, obsW, c.Observed, c.Budget, mark)
	}
	fmt.Fprintln(w)
	if v.Pass {
		fmt.Fprintln(w, "verdict: PASS")
	} else {
		fmt.Fprintln(w, "verdict: FAIL")
	}
	for _, viol := range res.Violations {
		fmt.Fprintf(w, "  violation: %s\n", viol)
	}
	if extra := res.ViolationCount - int64(len(res.Violations)); extra > 0 {
		fmt.Fprintf(w, "  ... and %d more violation(s)\n", extra)
	}
}

// Table renders WriteTable to a string.
func (v *Verdict) Table() string {
	var b strings.Builder
	v.WriteTable(&b)
	return b.String()
}

// roundDur trims sub-microsecond noise out of human renderings.
func roundDur(d time.Duration) time.Duration {
	return d.Round(time.Microsecond)
}
