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
	"proof/internal/roofline"
)

var rooflineBenchOut = flag.String("roofline-bench-out", "", "write the roofline hot-path benchmark artifact (BENCH_roofline.json) to this path")

// heldSource builds model on the A100 at batch 4 up to the pipeline's
// tail and returns it with its resolved request, so the tail can run
// again and again on one held engine.
func heldSource(tb testing.TB, model string) (*layerSource, *Resolved) {
	tb.Helper()
	r, err := Resolve(Options{Model: model, Platform: "a100", Batch: 4})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := build(context.Background(), &r)
	if err != nil {
		tb.Fatal(err)
	}
	return &src, &r
}

// tailAllocs is what one tail allocates whatever the model: the
// report, its layers, one names array and one kernels array.
const tailAllocs = 4

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

// BenchmarkReportTail measures the pipeline's tail on a held
// resnet-18/a100/batch-4 engine, the same every run so ns/op is
// comparable across commits: each layer's simulated timing, predicted
// cost, category and roofline point, its names and kernel latencies,
// then the shares, the end-to-end point, utilization and power — the
// per-report work once the engine and its mapping are built.
func BenchmarkReportTail(b *testing.B) {
	src, r := heldSource(b, "resnet-18")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.tail(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTailAllocsIndependentOfModel is the always-on guard behind the
// benchmark artifact: the tail allocates tailAllocs objects for
// resnet-18, resnet-50 and vit-t alike (25, 58 and 42 layers at batch
// 4), so nothing in its per-layer loop allocates.
func TestTailAllocsIndependentOfModel(t *testing.T) {
	for _, model := range []string{"resnet-18", "resnet-50", "vit-t"} {
		src, r := heldSource(t, model)
		var err error
		n := testing.AllocsPerRun(20, func() { _, err = src.tail(r) })
		if err != nil {
			t.Fatal(err)
		}
		if n != tailAllocs {
			t.Errorf("%s: the tail allocates %v objects over %d layers, want %d", model, n, len(src.eng.Layers()), tailAllocs)
		}
	}
}

// rooflineBenchArtifact is the committed BENCH_roofline.json schema:
// ns/op and allocs/op for the roofline micro-benchmarks and the report
// tail. Allocs are asserted before writing (zero for the point math,
// tailAllocs for the tail); ns/op moves with the host.
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
// writer refuses to pin an artifact whose point math allocates or whose
// tail allocates other than tailAllocs objects.
func TestWriteRooflineBenchArtifact(t *testing.T) {
	if *rooflineBenchOut == "" {
		t.Skip("no -roofline-bench-out path; artifact regeneration runs via `make bench-roofline`")
	}
	art := rooflineBenchArtifact{Name: "bench-roofline", Seed: 1}
	for _, bm := range []struct {
		name   string
		fn     func(*testing.B)
		allocs int64
	}{
		{"BenchmarkRooflineNewPoint", BenchmarkRooflineNewPoint, 0},
		{"BenchmarkRooflineClassifyBound", BenchmarkRooflineClassifyBound, 0},
		{"BenchmarkReportTail", BenchmarkReportTail, tailAllocs},
	} {
		r := testing.Benchmark(bm.fn)
		if r.AllocsPerOp() != bm.allocs {
			t.Fatalf("%s allocates %d/op (%d B/op), want %d; not writing artifact", bm.name, r.AllocsPerOp(), r.AllocedBytesPerOp(), bm.allocs)
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
