package core

import (
	"context"
	"math"
	"testing"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
)

// TestStageAllocsLinearInNodes: over the whole zoo, on one platform of
// each simulated runtime (a100, xeon-6330, npu3720), the allocations of
// each per-graph stage grow at most linearly with the graph's node
// count — the fitted log-log slope stays at or below 1.1 — and the
// objects one cold profile allocates (batch 8) do not grow with it:
// their least-squares slope against the node count stays at or below
// 0.1 per node. The stages are admission (graph.Admit of a built
// graph), a run's view plus its NewRep, backend.Build, and MapLayers.
// A stage that turns quadratic, or that allocates per layer again,
// fails here deterministically, before any timing could show it.
func TestStageAllocsLinearInNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every zoo model")
	}
	ctx := context.Background()
	stages := []string{"admit", "view+rep", "backend.Build", "MapLayers"}
	for _, key := range []string{"a100", "xeon-6330", "npu3720"} {
		plat, err := hardware.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		be, err := backend.Get(plat.Runtime)
		if err != nil {
			t.Fatal(err)
		}
		cfg := backend.Config{Platform: plat, DType: plat.DefaultDType, Batch: 1}
		var nodes, profile []float64
		allocs := make([][]float64, len(stages))
		for _, info := range models.List() {
			raw, err := info.Build()
			if err != nil {
				t.Fatal(err)
			}
			adm, errs := graph.Admit(raw)
			if len(errs) > 0 {
				t.Fatal(errs[0])
			}
			rep, err := analysis.NewRepWithBatch(adm.View(), 1)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := be.Build(ctx, rep, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs := []func(){
				func() { graph.Admit(raw) },
				func() { analysis.NewRepWithBatch(adm.View(), 1) },
				func() { be.Build(ctx, rep, cfg) },
				func() { be.MapLayers(ctx, eng, analysis.NewOptimizedRep(rep)) },
			}
			nodes = append(nodes, float64(len(raw.Nodes)))
			for i, run := range runs {
				allocs[i] = append(allocs[i], testing.AllocsPerRun(2, run))
			}
			opts := Options{Model: info.Key, Platform: key, Batch: 8, IgnoreSupport: true}
			if _, err := ProfileCtx(ctx, opts); err != nil {
				t.Fatal(err)
			}
			var runErr error
			_, objects := allocsPerRun(2, func(i int) {
				opts.Seed = uint64(i + 1)
				if _, err := ProfileCtx(ctx, opts); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			profile = append(profile, float64(objects))
		}
		for i, stage := range stages {
			if slope := logLogSlope(nodes, allocs[i]); slope > 1.1 {
				t.Errorf("%s %s: allocations grow with node count at log-log slope %.2f, want <= 1.1", key, stage, slope)
			} else {
				t.Logf("%s %s: log-log slope %.2f", key, stage, slope)
			}
		}
		slope := linearSlope(nodes, profile)
		t.Logf("%s: a cold profile allocates %.3f more objects per node", key, slope)
		if slope > 0.1 {
			t.Errorf("%s: a cold profile allocates %.3f more objects per node, want <= 0.1", key, slope)
		}
	}
}

// linearSlope is the least-squares slope of y against x.
func linearSlope(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// logLogSlope is the least-squares slope of log(y) against log(x).
func logLogSlope(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
