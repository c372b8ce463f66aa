package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"proof/internal/graph"
)

// concatOfInputs is one Concat over n graph inputs: every input gets a
// reformat on a runtime that converts graph inputs (trtsim, ovsim), so
// the build hands out n aliases.
func concatOfInputs(n int) *graph.Graph {
	g := graph.New("concat-" + strconv.Itoa(n))
	ins := make([]string, n)
	for i := range ins {
		ins[i] = "x" + strconv.Itoa(i)
		g.AddTensor(&graph.Tensor{Name: ins[i], DType: graph.Float32, Shape: graph.Shape{1, 4}})
	}
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "cat", OpType: "Concat", Inputs: ins, Outputs: []string{"y"},
		Attrs: graph.Attrs{graph.IntAttr("axis", 1)}})
	g.Inputs = ins
	g.Outputs = []string{"y"}
	return g
}

// TestReformatAliasesScaleLinearly: profiling one Concat over 16,000
// graph inputs takes at most 48 times as long as over 1,000 — three
// times linear — on a100 and npu3720, whose runtimes reformat every
// graph input. Checking each new alias against every alias handed out
// before it made the build quadratic in the reformat count (a ratio of
// 79 to 150 on a 2-CPU host). A sample of the small size profiles it
// sixteen times, so that both samples do the same work when the build
// is linear; each size takes the fastest of three samples, alternating
// with the other size, so that both see the same load when other tests
// run beside this one.
func TestReformatAliasesScaleLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a 16,000-input graph")
	}
	ctx := context.Background()
	for _, plat := range []string{"a100", "npu3720"} {
		sizes := []struct{ inputs, runs int }{{1000, 16}, {16000, 1}}
		best := []time.Duration{-1, -1}
		for range 3 {
			for i, size := range sizes {
				g := concatOfInputs(size.inputs)
				start := time.Now()
				for range size.runs {
					if _, err := ProfileCtx(ctx, Options{Graph: g, Platform: plat, Batch: 1}); err != nil {
						t.Fatal(err)
					}
				}
				if d := time.Since(start); best[i] < 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		ratio := 16 * float64(best[1]) / float64(best[0])
		t.Logf("%s: %v at 1,000 inputs, %v at 16,000: ratio %.1f", plat, best[0]/16, best[1], ratio)
		if ratio > 48 {
			t.Errorf("%s: 16 times the inputs take %.1f times as long, want <= 48", plat, ratio)
		}
	}
}
