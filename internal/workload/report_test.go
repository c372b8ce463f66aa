package workload

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// fixtureResult is a hand-built run outcome: grading and rendering are
// pure functions over it, so the goldens are exactly stable.
func fixtureResult() *Result {
	return &Result{
		Scenario:       "golden",
		Seed:           7,
		ScheduleDigest: "f00dfacecafe0123456789abcdef0123456789abcdef0123456789abcdef0123",
		Requests:       1000,
		OK:             980,
		Shed:           8,
		Failed:         7,
		Canceled:       5,
		Latency: LatencySummary{
			Count: 980,
			Mean:  Duration(3200 * time.Microsecond),
			P50:   Duration(2500 * time.Microsecond),
			P99:   Duration(42 * time.Millisecond),
			P999:  Duration(180 * time.Millisecond),
			Max:   Duration(211 * time.Millisecond),
		},
		Elapsed:       Duration(2 * time.Second),
		ThroughputRPS: 490,
	}
}

func fixtureSLO() SLO {
	return SLO{
		P50:         Duration(5 * time.Millisecond),
		P99:         Duration(100 * time.Millisecond),
		P999:        Duration(500 * time.Millisecond),
		ErrorBudget: 0.01,
		ShedBudget:  0.02,
	}
}

// checkGolden compares got against testdata/<name>, rewriting the
// fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestVerdictGoldenPass(t *testing.T) {
	v := Grade(fixtureResult(), fixtureSLO())
	if !v.Pass {
		t.Fatalf("fixture verdict should pass: %+v", v.Checks)
	}
	data, err := v.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "verdict_pass.json", data)
	checkGolden(t, "verdict_pass.table", []byte(v.Table()))
}

func TestVerdictGoldenFail(t *testing.T) {
	res := fixtureResult()
	res.Failed = 120 // blows the 1% error budget
	res.Violations = []string{"POST /profile: 429 without Retry-After"}
	res.ViolationCount = 3
	v := Grade(res, fixtureSLO())
	if v.Pass {
		t.Fatal("fixture verdict should fail")
	}
	data, err := v.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "verdict_fail.json", data)
	checkGolden(t, "verdict_fail.table", []byte(v.Table()))
}

func TestGradeBudgetEdges(t *testing.T) {
	res := fixtureResult()

	// A zero SLO grades only the serving contract.
	v := Grade(res, SLO{})
	if len(v.Checks) != 1 || v.Checks[0].Name != "contract" {
		t.Errorf("zero SLO graded %d checks, want contract only", len(v.Checks))
	}
	if !v.Pass {
		t.Error("clean result failed a contract-only grade")
	}

	// Any declared SLO turns the error budget on — with zero budget
	// meaning zero tolerance.
	strict := Grade(res, SLO{P99: Duration(time.Second)})
	var sawError, errorPassed bool
	for _, c := range strict.Checks {
		if c.Name == "error_budget" {
			sawError, errorPassed = true, c.Pass
		}
	}
	if !sawError {
		t.Fatal("declared SLO did not grade the error budget")
	}
	if errorPassed {
		t.Error("7 failures passed a zero error budget")
	}

	// Canceled requests shrink the grading denominator: 5 failures out
	// of 10 completed (not 100 issued) is a 50% error rate and must
	// blow a 30% budget.
	canceledHeavy := &Result{Requests: 100, Canceled: 90, OK: 5, Failed: 5}
	v2 := Grade(canceledHeavy, SLO{ErrorBudget: 0.3})
	for _, c := range v2.Checks {
		if c.Name == "error_budget" && c.Pass {
			t.Errorf("error budget graded over issued rather than completed requests: %+v", c)
		}
	}

	// Throughput floor fails when unmet.
	slow := fixtureResult()
	slow.ThroughputRPS = 10
	v3 := Grade(slow, SLO{MinThroughputRPS: 100})
	if v3.Pass {
		t.Error("10 req/s passed a 100 req/s floor")
	}
}
