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

// TestStageAllocsLinearInNodes: over the whole zoo, the allocations of
// each per-graph stage grow at most linearly with the graph's node
// count — the fitted log-log slope stays at or below 1.1. The stages
// are admission (graph.Admit of a built graph), a run's view plus its
// NewRep, backend.Build, and MapLayers. A stage that turns quadratic
// fails here deterministically, before any timing could show it.
func TestStageAllocsLinearInNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every zoo model")
	}
	plat, err := hardware.Get("a100")
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.Get(plat.Runtime)
	if err != nil {
		t.Fatal(err)
	}
	cfg := backend.Config{Platform: plat, DType: plat.DefaultDType, Batch: 1}
	ctx := context.Background()
	stages := []string{"admit", "view+rep", "backend.Build", "MapLayers"}
	var nodes []float64
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
		opt := analysis.NewOptimizedRep(rep)
		runs := []func(){
			func() { graph.Admit(raw) },
			func() { analysis.NewRepWithBatch(adm.View(), 1) },
			func() { be.Build(ctx, rep, cfg) },
			func() { be.MapLayers(ctx, eng, opt) },
		}
		nodes = append(nodes, float64(len(raw.Nodes)))
		for i, run := range runs {
			allocs[i] = append(allocs[i], testing.AllocsPerRun(2, run))
		}
	}
	for i, stage := range stages {
		if slope := logLogSlope(nodes, allocs[i]); slope > 1.1 {
			t.Errorf("%s: allocations grow with node count at log-log slope %.2f, want <= 1.1", stage, slope)
		} else {
			t.Logf("%s: log-log slope %.2f", stage, slope)
		}
	}
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
