package analysis_test

import (
	"runtime"
	"testing"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/models"
)

// reluChain builds x -> Relu -> Relu -> Relu -> Relu -> y.
func reluChain() *graph.Graph {
	g := graph.New("chain")
	names := []string{"x", "t1", "t2", "t3", "y"}
	for _, n := range names {
		g.AddTensor(&graph.Tensor{Name: n, DType: graph.Float32, Shape: graph.Shape{1, 4}})
	}
	for i := 1; i < len(names); i++ {
		g.AddNode(&graph.Node{Name: "r" + names[i], OpType: "Relu",
			Inputs: []string{names[i-1]}, Outputs: []string{names[i]}})
	}
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	return g
}

// adjacentPair returns the first producer/consumer pair in topological
// order whose producer's single output feeds only that consumer.
func adjacentPair(t *testing.T, rep *analysis.Rep) []*graph.Node {
	t.Helper()
	g := rep.Graph
	for _, p := range rep.Nodes() {
		if len(p.Outputs) != 1 || p.OpType == "Constant" {
			continue
		}
		if cs := g.Consumers(p.Outputs[0]); len(cs) == 1 {
			return []*graph.Node{p, cs[0]}
		}
	}
	t.Fatalf("%s: no adjacent producer/consumer pair", g.Name)
	return nil
}

// bytesPerCall returns the heap bytes call allocates on average over n
// calls, measured on one P so no other goroutine's allocations count.
func bytesPerCall(n int, call func(i int)) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestLayerMappingAllocsIndependentOfGraphSize: fusing a two-node group
// and searching it back by its boundary tensors allocate the same small
// amount on a four-node chain as on sd-unet (1590 nodes). Rebuilding a position
// index over every node on each call would grow with the graph.
func TestLayerMappingAllocsIndependentOfGraphSize(t *testing.T) {
	const calls = 64
	const maxBytes = 2048
	unet, err := models.Build("sd-unet")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{reluChain(), unet} {
		rep, err := analysis.NewRep(g)
		if err != nil {
			t.Fatal(err)
		}
		pair := adjacentPair(t, rep)
		probe, err := analysis.NewOptimizedRep(rep).SetFusedOp("probe", pair)
		if err != nil {
			t.Fatal(err)
		}
		opts := make([]*analysis.OptimizedRep, calls)
		for i := range opts {
			opts[i] = analysis.NewOptimizedRep(rep)
		}
		var searchErr, fuseErr error
		var found []*graph.Node
		search := bytesPerCall(calls, func(i int) {
			found, searchErr = opts[i].GetSubgraphOpsByIO(probe.Inputs, probe.Outputs)
		})
		fuse := bytesPerCall(calls, func(i int) {
			_, fuseErr = opts[i].SetFusedOp("pair", pair)
		})
		if searchErr != nil || fuseErr != nil {
			t.Fatalf("%s: search %v, fuse %v", g.Name, searchErr, fuseErr)
		}
		if len(found) != 2 || found[0] != pair[0] || found[1] != pair[1] {
			t.Fatalf("%s: search found %v, want %v", g.Name, found, pair)
		}
		if search > maxBytes || fuse > maxBytes {
			t.Errorf("%s (%d nodes): GetSubgraphOpsByIO %d B/call, SetFusedOp %d B/call, want <= %d each",
				g.Name, rep.NodeCount(), search, fuse, maxBytes)
		}
	}
}
