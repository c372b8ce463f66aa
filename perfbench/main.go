// Command perfbench is PRoof's serving benchmark. With -trace 0 it
// measures a freshly built proofd end to end over loopback HTTP; with
// -trace 1 it times each stack layer in process, one request at a
// time, on the same seeded inputs. The last line of its output is one
// JSON object with the run's metrics. Run it through run.sh, which
// builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload cold-zoo --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"proof/internal/profsession"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload: cold-zoo, warm-hot or inline-graph")
		seed      = flag.Uint64("seed", 1, "seed the request list is generated from")
		seconds   = flag.Int("seconds", 20, "length of the timed phase (or of the traced pass)")
		trace     = flag.Int("trace", 0, "0 = end-to-end metrics against proofd, 1 = per-layer metrics from the traced in-process pass")
		proofd    = flag.String("proofd", "", "proofd binary to benchmark (required with -trace 0)")
		out       = flag.String("out", ".", "directory for the trace file")
		probeMode = flag.Bool("probe", false, "serve as the setup probe process (internal)")
	)
	flag.Parse()
	if *probeMode {
		if err := serveProbe(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench probe: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := lookupWorkload(*workload); !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	if *trace == 0 && *proofd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -trace 0 needs -proofd")
		os.Exit(2)
	}
	// An interrupt ends the run early; proofd is still stopped and
	// waited for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTrace(ctx, *workload, *seed, *seconds, *out)
	} else {
		res, err = runE2E(ctx, *proofd, *workload, *seed, *seconds)
	}
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printList reports the generated list and its input properties.
func printList(l *requestList, sent int) {
	p := l.properties(sent)
	fmt.Printf("list: %s digest %s, %d warm-up + %d timed requests generated, %d sent\n",
		l.workload, l.digest(), len(l.warmup), len(l.timed), sent)
	fmt.Printf("inputs: exact repeats %.1f%%, model reused under another configuration %.1f%%, distinct keys %d (%.2fx the %d-entry session cache), request bytes mean %.0f total %d\n",
		100*p.repeatShare, 100*p.graphReuse, p.distinctKeys, float64(p.distinctKeys)/profsession.DefaultCapacity, profsession.DefaultCapacity, p.meanReqBytes, p.totalReqBytes)
}

func runE2E(ctx context.Context, bin, workload string, seed uint64, seconds int) (*result, error) {
	l, err := buildList(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	probe, err := startProber()
	if err != nil {
		return nil, err
	}
	defer probe.stop()
	setupTally := newTally()
	var runs []setupResult
	for i := 0; i < setups; i++ {
		s, err := setUp(ctx, bin, l, probe, &setupTally)
		if err != nil {
			return nil, err
		}
		runs = append(runs, s)
		if i < setups-1 {
			s.d.stop()
		}
	}
	final := runs[len(runs)-1]
	var ref map[int32][]byte
	if workload == "warm-hot" {
		ref = final.bodies
	}
	p, err := runTimed(ctx, final.d, l, ref, seconds, seed)
	final.d.stop()
	if err != nil {
		return nil, err
	}

	// Byte-for-byte checks against in-process profiles: the seeded
	// sample of timed responses, and for warm-hot every setup body the
	// timed hits were compared with.
	checked := map[int32][]byte{}
	for pos, body := range p.samples {
		checked[l.timed[pos]] = body
	}
	if workload == "warm-hot" {
		for k, body := range final.bodies {
			checked[k] = body
		}
	}
	checkTally := newTally()
	if err := checkSamples(ctx, l, checked, &checkTally); err != nil {
		return nil, err
	}

	printList(l, p.attempted)
	ok := p.ok()
	if ok == 0 {
		return nil, fmt.Errorf("no successful timed request (%d attempted; first failure: %s)", p.attempted, p.firstFailure)
	}
	okf := float64(ok)
	p50, err := percentile(p.latMS, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(p.latMS, 0.9)
	if err != nil {
		return nil, err
	}
	mallocs := float64(p.memAfter["Mallocs"] - p.memBefore["Mallocs"])
	totalAlloc := float64(p.memAfter["TotalAlloc"] - p.memBefore["TotalAlloc"])
	metrics := map[string]metric{
		"rps":               {okf / p.wall.Seconds(), "req/s"},
		"p50_ms":            {p50, "ms"},
		"p90_ms":            {p90, "ms"},
		"cpu_ms_per_req":    {ms(p.proofdCPU) / okf, "ms"},
		"allocs_per_req":    {mallocs / okf, "count"},
		"alloc_kib_per_req": {totalAlloc / 1024 / okf, "KiB"},
		"heap_live_mib":     {float64(p.memAfter["HeapAlloc"]) / (1 << 20), "MiB"},
		"setup_s":           {setupSeconds(runs, false), "s"},
	}

	speeds := make([]float64, len(runs))
	for i, r := range runs {
		speeds[i] = r.speed
	}
	exhausted := ""
	if p.attempted == len(l.timed) {
		exhausted = ", request list exhausted before the deadline"
	}
	fmt.Printf("timed: %s, %d connections closed loop, %.2f s wall%s\n", workload, connections, p.wall.Seconds(), exhausted)
	printCounts("setup", setupTally)
	printCounts("timed", p.tally)
	printCounts("top-up", p.topUpTally)
	printCounts("checks", checkTally)
	fmt.Printf("responses: mean %.0f bytes\n", float64(p.respBytes)/okf)
	fmt.Printf("setup: unscaled median %.4f s over %d setups; probe median %.0f jobs/s per CPU (the reference host runs %.0f)\n",
		setupSeconds(runs, true), len(runs), median(speeds), refSpeed)
	fmt.Printf("latency: p50 %s, p90 %s, p99 %s\n", pct(p.latMS, 0.5), pct(p.latMS, 0.9), pct(p.latMS, 0.99))
	fmt.Printf("noise: host steal %.1f%%, proofd peak RSS %.1f MiB, proofd GCs %d, generator CPU %.3f ms/req\n",
		100*p.steal, float64(p.peakRSS)/1024, p.memAfter["NumGC"]-p.memBefore["NumGC"], ms(p.genCPU)/okf)
	fmt.Printf("heap: live heap read after %d successful requests\n", p.heapAfter)
	printMetrics(metrics)

	total := setupTally
	total.merge(p.tally)
	total.merge(p.topUpTally)
	total.merge(checkTally)
	return &result{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   metrics,
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct formats a percentile with its sample count, or says why it is
// not reported.
func pct(sorted []float64, q float64) string {
	v, err := percentile(sorted, q)
	if err != nil {
		return fmt.Sprintf("n/a (n=%d)", len(sorted))
	}
	return fmt.Sprintf("%.3f ms (n=%d)", v, len(sorted))
}

func printCounts(stage string, t tally) {
	classes := make([]string, 0, len(t.classes))
	for c, n := range t.classes {
		classes = append(classes, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(classes)
	fmt.Printf("%s: attempted %d, ok %d, failed %d [%s]", stage, t.attempted, t.ok(), t.failed, strings.Join(classes, " "))
	if t.failed > 0 {
		fmt.Printf(" first failure: %s", t.firstFailure)
	}
	fmt.Println()
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-26s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
