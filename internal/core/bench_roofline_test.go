package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/roofline"
)

var rooflineBenchOut = flag.String("roofline-bench-out", "", "write the roofline hot-path benchmark artifact (BENCH_roofline.json) to this path")

// benchPlan profiles the pinned benchmark configuration, resnet-18 on
// the A100 at batch 4, the same every run so ns/op is comparable
// across commits. It returns the plan a memo store keeps for it and the
// report assembled from that plan.
func benchPlan(tb testing.TB) (*memo.Plan, *Report) {
	tb.Helper()
	store := memo.NewStore(memo.StoreConfig{UnitCapacity: memo.DefaultUnitCapacity})
	opts := Options{Model: "resnet-18", Platform: "a100", Batch: 4, Memo: store}
	rep, err := ProfileCtx(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := Resolve(opts)
	if err != nil {
		tb.Fatal(err)
	}
	plan, ok := store.Plan(r.Key)
	if !ok {
		tb.Fatal("the memo store kept no plan")
	}
	return plan, rep
}

// planKernels returns an array with room for every kernel of plan.
func planKernels(plan *memo.Plan) []KernelReport {
	var n int
	for i := range plan.Layers {
		n += len(plan.Layers[i].Kernels)
	}
	return make([]KernelReport, n)
}

func benchModel(tb testing.TB) roofline.Model {
	tb.Helper()
	plat, err := hardware.Get("a100")
	if err != nil {
		tb.Fatal(err)
	}
	return roofline.NewModel(plat, graph.Float16, hardware.Clocks{})
}

// BenchmarkRooflineNewPoint measures single-point construction — the
// innermost call of the per-request analysis loop.
func BenchmarkRooflineNewPoint(b *testing.B) {
	m := benchModel(b)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		p := roofline.NewPoint("layer", int64(i)+1e9, 3e6, time.Millisecond, m)
		sink += p.FLOPS
	}
	_ = sink
}

// BenchmarkRooflineClassifyBound measures bound classification across
// the memory/ridge/compute regimes.
func BenchmarkRooflineClassifyBound(b *testing.B) {
	m := benchModel(b)
	ridge := m.RidgeAI()
	ais := [3]float64{ridge / 4, ridge, ridge * 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.ClassifyBound(ais[i%3]) == "" {
			b.Fatal("empty bound")
		}
	}
}

// BenchmarkLayerPointMapping measures one pass of assemble's per-layer
// loop (Report.fillLayers) over a resnet-18 plan: per-layer point
// construction, kernel latencies, share filling, the end-to-end point
// and aggregate utilization — the steady-state per-request work once a
// run has its plan. Must run allocation-free.
func BenchmarkLayerPointMapping(b *testing.B) {
	plan, rep := benchPlan(b)
	kernels := planKernels(plan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.fillLayers(plan, kernels)
	}
	if len(rep.Layers) != len(plan.Layers) {
		b.Fatalf("mapped %d layers for %d planned", len(rep.Layers), len(plan.Layers))
	}
}

// TestLayerPointMappingZeroAlloc is the always-on guard behind the
// benchmark artifact: assemble's per-layer loop, shares, end-to-end
// point and utilization included, must not allocate per pass.
func TestLayerPointMappingZeroAlloc(t *testing.T) {
	plan, rep := benchPlan(t)
	kernels := planKernels(plan)
	n := testing.AllocsPerRun(50, func() { rep.fillLayers(plan, kernels) })
	if n != 0 {
		t.Fatalf("the per-layer loop allocates %v per pass, want 0", n)
	}
}

// rooflineBenchArtifact is the committed BENCH_roofline.json schema:
// ns/op and allocs/op for the roofline hot-path micro-benchmarks.
// Allocs are asserted zero before writing; ns/op moves with the host.
type rooflineBenchArtifact struct {
	Name    string               `json:"name"`
	Seed    uint64               `json:"seed"`
	Results []rooflineBenchEntry `json:"results"`
}

type rooflineBenchEntry struct {
	Benchmark   string  `json:"benchmark"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestWriteRooflineBenchArtifact regenerates BENCH_roofline.json when
// run with -roofline-bench-out (wired to `make bench-roofline`). The
// writer refuses to pin an artifact whose hot paths allocate.
func TestWriteRooflineBenchArtifact(t *testing.T) {
	if *rooflineBenchOut == "" {
		t.Skip("no -roofline-bench-out path; artifact regeneration runs via `make bench-roofline`")
	}
	art := rooflineBenchArtifact{Name: "bench-roofline", Seed: 1}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkRooflineNewPoint", BenchmarkRooflineNewPoint},
		{"BenchmarkRooflineClassifyBound", BenchmarkRooflineClassifyBound},
		{"BenchmarkLayerPointMapping", BenchmarkLayerPointMapping},
	} {
		r := testing.Benchmark(bm.fn)
		if r.AllocsPerOp() != 0 {
			t.Fatalf("%s allocates %d/op (%d B/op); not writing artifact", bm.name, r.AllocsPerOp(), r.AllocedBytesPerOp())
		}
		art.Results = append(art.Results, rooflineBenchEntry{
			Benchmark:   bm.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		t.Logf("%s: %.1f ns/op, %d allocs/op", bm.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp())
	}
	raw, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*rooflineBenchOut, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
