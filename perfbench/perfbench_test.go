package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"proof/internal/profsession"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestListDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := buildList(w.name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildList(w.name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildList(w.name, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave two digests", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.name)
		}
	}
}

func TestListProperties(t *testing.T) {
	for _, tc := range []struct {
		workload            string
		repeats, reuse      float64
		distinctAtLeast     int
		distinctAtMost      int
		inlineBodiesOverKiB int
	}{
		{"cold-zoo", 0, 1, profsession.DefaultCapacity + 1, 1 << 30, 0},
		{"warm-hot", 1, 0, 6, 6, 0},
		{"inline-graph", 0, 1, profsession.DefaultCapacity + 1, 1 << 30, 18},
	} {
		l, err := buildList(tc.workload, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := l.properties(len(l.timed))
		if p.repeatShare != tc.repeats || p.graphReuse != tc.reuse {
			t.Errorf("%s: repeat share %v, reuse share %v; want %v, %v", tc.workload, p.repeatShare, p.graphReuse, tc.repeats, tc.reuse)
		}
		if p.distinctKeys < tc.distinctAtLeast || p.distinctKeys > tc.distinctAtMost {
			t.Errorf("%s: %d distinct keys, want %d..%d", tc.workload, p.distinctKeys, tc.distinctAtLeast, tc.distinctAtMost)
		}
		for _, i := range l.timed[:50] {
			r := &l.keys[i]
			if n := l.bodyLen(r); tc.inlineBodiesOverKiB > 0 && n < tc.inlineBodiesOverKiB<<10 {
				t.Errorf("%s: inline body of %d bytes", tc.workload, n)
			}
			if !bytes.Contains(r.body, []byte(`"platform":"`+r.platform+`"`)) {
				t.Errorf("%s: body does not name platform %s", tc.workload, r.platform)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{20, 0.5, 10},
		{19, 0.5, 0},
		{100, 0.9, 90},
		{99, 0.9, 0},
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{0, 0.5, 0},
	} {
		got, err := percentile(sorted(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want a refusal", tc.q*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestParsePidStat(t *testing.T) {
	u, s, err := parsePidStat(readFixture(t, "pid_stat.txt"))
	if err != nil || u != 1530 || s != 245 {
		t.Fatalf("parsePidStat = %d, %d, %v; want 1530, 245", u, s, err)
	}
	if _, _, err := parsePidStat([]byte("12 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
}

func TestParseProcStat(t *testing.T) {
	got, err := parseProcStat(readFixture(t, "proc_stat.txt"))
	want := cpuTimes{steal: 40953, total: 90194 + 12 + 16996 + 272226 + 274 + 0 + 2625 + 40953}
	if err != nil || got != want {
		t.Fatalf("parseProcStat = %+v, %v; want %+v", got, err, want)
	}
	if _, err := parseProcStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("stat without a cpu line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	if got, err := parseVmHWM(readFixture(t, "status.txt")); err != nil || got != 133120 {
		t.Fatalf("parseVmHWM = %d, %v; want 133120", got, err)
	}
}

func TestParseMemStats(t *testing.T) {
	got, err := parseMemStats(readFixture(t, "heap_debug1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"Mallocs":    123456789,
		"TotalAlloc": 9876543210,
		"HeapAlloc":  25312456,
		"NumGC":      517,
		"MaxRSS":     136314880,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	if _, ok := got["Stack"]; ok {
		t.Error("the Stack pair parsed as one integer")
	}
	if _, err := parseMemStats([]byte("heap profile: 1: 2 [3: 4] @ heap/1\n")); err == nil {
		t.Error("profile without a MemStats block parsed")
	}
}

func TestSetupSecondsScaled(t *testing.T) {
	// The second and third setups ran on a host three times as fast as
	// the reference host: their times count triple.
	runs := []setupResult{
		{elapsed: 100 * time.Millisecond, speed: refSpeed},
		{elapsed: 100 * time.Millisecond, speed: 3 * refSpeed},
		{elapsed: 50 * time.Millisecond, speed: 3 * refSpeed},
	}
	if got := setupSeconds(runs, false); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("setupSeconds = %v, want the scaled median 0.15", got)
	}
	if got := setupSeconds(runs, true); got != 0.1 {
		t.Errorf("unscaled setupSeconds = %v, want 0.1", got)
	}
}

func TestServeProbe(t *testing.T) {
	var out bytes.Buffer
	if err := serveProbe(strings.NewReader("2000\n1000\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("probe answered %q, want two speeds", out.String())
	}
	for _, l := range lines {
		if v, err := strconv.ParseFloat(l, 64); err != nil || v <= 0 {
			t.Errorf("probe speed %q", l)
		}
	}
	if err := serveProbe(strings.NewReader("soon\n"), &out); err == nil {
		t.Error("probe accepted a duration that is not a number")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a by 10
		{Name: "c", Parent: 1, Start: 20, End: 25},
	}
	got := selfTimes(spans)
	want := []int64{50, 25, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	bad := []span{
		{Name: "root", Parent: -1, Start: 0, End: 10},
		{Name: "late", Parent: 0, Start: 5, End: 20},
	}
	if checkTree(bad) == nil {
		t.Error("child ending after its parent passed")
	}
	bad[1] = span{Name: "other", Parent: 0, Req: 1, Start: 1, End: 2}
	if checkTree(bad) == nil {
		t.Error("child with another request id passed")
	}
}

// TestTracedPassTree runs a few warm-hot requests through the traced
// pass and checks the span forest it records.
func TestTracedPassTree(t *testing.T) {
	l, err := buildList("warm-hot", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	run, err := pass(context.Background(), l, tr, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if run.requests != 3 || run.failed != 0 {
		t.Fatalf("pass served %d requests with %d failures (%s)", run.requests, run.failed, run.firstFailure)
	}
	if err := checkTree(tr.spans); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range tr.spans {
		counts[s.Name]++
		if s.Parent >= 0 && tr.spans[s.Parent].Req != s.Req {
			t.Errorf("span %s crosses requests", s.Name)
		}
	}
	// Setup misses run the pipeline inside their request spans; the
	// timed hits do not, and each is replayed once.
	if counts["server.request"] != len(l.warmup)+3 || counts["core.pipeline"] != len(l.warmup) || counts["replay"] != 3 {
		t.Errorf("span counts %v", counts)
	}
}

// TestLayerMetricsMatchBenchmark keeps the traced pass's metric table
// and the per_layer list of BENCHMARK.json in step.
func TestLayerMetricsMatchBenchmark(t *testing.T) {
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced pass prints %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b := bench.PerLayer[i]; b.Name != m.name || b.Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, traced pass prints %s %s", i, b.Name, b.Unit, m.name, m.unit)
		}
	}
}
