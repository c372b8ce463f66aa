package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
	"proof/internal/roofline"
)

var rooflineBenchOut = flag.String("roofline-bench-out", "", "write the roofline hot-path benchmark artifact (BENCH_roofline.json) to this path")

// benchEngine builds the pinned benchmark engine: resnet-18 on the
// A100, the same configuration every run so ns/op is comparable across
// commits.
func benchEngine(tb testing.TB) *backend.Engine {
	tb.Helper()
	g, err := models.Build("resnet-18")
	if err != nil {
		tb.Fatal(err)
	}
	g.ConvertFloatTensors(graph.Float16)
	rep, err := analysis.NewRepWithBatch(g, 4)
	if err != nil {
		tb.Fatal(err)
	}
	plat, err := hardware.Get("a100")
	if err != nil {
		tb.Fatal(err)
	}
	be, err := backend.Get(plat.Runtime)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
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

// BenchmarkLayerPointMapping measures one full layer->point mapping
// pass over a built engine: pooled timings refill, per-layer point
// construction and share filling — the steady-state per-request work
// after the engine caches warm up. Must run allocation-free.
func BenchmarkLayerPointMapping(b *testing.B) {
	eng := benchEngine(b)
	m := benchModel(b)
	layers := eng.Layers()
	timings := eng.TimingsInto(nil, 1)
	lw := &roofline.LayerWise{Model: m, Points: make([]roofline.Point, 0, len(layers))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timings = eng.TimingsInto(timings, 1)
		lw.Points = lw.Points[:0]
		for j := range layers {
			t := timings[j]
			flop := t.ActualHWFLOP
			lw.Points = append(lw.Points, roofline.NewPoint(layers[j].Name, flop, t.ActualBytes, t.Latency, m))
		}
		lw.FillShares()
	}
	if len(lw.Points) != len(layers) {
		b.Fatalf("mapped %d points for %d layers", len(lw.Points), len(layers))
	}
}

// TestLayerPointMappingZeroAlloc is the always-on guard behind the
// benchmark artifact: the layer->point mapping loop (pooled timings +
// point construction + share fill) must not allocate per pass.
func TestLayerPointMappingZeroAlloc(t *testing.T) {
	eng := benchEngine(t)
	m := benchModel(t)
	layers := eng.Layers()
	timings := eng.TimingsInto(nil, 1)
	lw := &roofline.LayerWise{Model: m, Points: make([]roofline.Point, 0, len(layers))}
	n := testing.AllocsPerRun(50, func() {
		timings = eng.TimingsInto(timings, 1)
		lw.Points = lw.Points[:0]
		for j := range layers {
			tt := timings[j]
			lw.Points = append(lw.Points, roofline.NewPoint(layers[j].Name, tt.ActualHWFLOP, tt.ActualBytes, tt.Latency, m))
		}
		lw.FillShares()
	})
	if n != 0 {
		t.Fatalf("layer->point mapping allocates %v per pass, want 0", n)
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
