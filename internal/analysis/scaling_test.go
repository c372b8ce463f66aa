package analysis_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/models"
)

// reluChain builds x -> Relu -> ... -> Relu -> y from relus Relus.
func reluChain(relus int) *graph.Graph {
	g := graph.New(fmt.Sprintf("chain-%d", relus))
	names := []string{"x"}
	for i := 1; i < relus; i++ {
		names = append(names, fmt.Sprintf("t%d", i))
	}
	names = append(names, "y")
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

// myelinGroup returns the first Myelin region backend.Fuse forms on
// rep whose nodes reference more than eight distinct tensors.
func myelinGroup(t *testing.T, rep *analysis.Rep) []*graph.Node {
	t.Helper()
	for _, gr := range backend.Fuse(rep, backend.FusionRules{Myelin: true}) {
		tensors := map[string]bool{}
		for _, n := range gr.Nodes {
			for _, tn := range append(append([]string(nil), n.Inputs...), n.Outputs...) {
				tensors[tn] = true
			}
		}
		if gr.Kind == backend.KindMyelin && len(tensors) > 8 {
			return gr.Nodes
		}
	}
	t.Fatalf("%s: no Myelin region over more than eight tensors", rep.Graph.Name)
	return nil
}

// TestLayerMappingAllocsIndependentOfGraphSize: fusing a group and
// searching it back by its boundary tensors allocate the same small
// amount however large the graph around it is. The groups are a
// two-node pair, on a four-node chain and on sd-unet (1590 nodes), and
// a Myelin-sized group over more than eight tensors, on a twelve-node
// chain and on vit-b — past the eight entries a scratch map holds
// before it grows. Rebuilding a position index over every node on each
// call would grow with the graph.
func TestLayerMappingAllocsIndependentOfGraphSize(t *testing.T) {
	const calls = 64
	const maxBytes = 1024
	pairOf := func(t *testing.T, rep *analysis.Rep) []*graph.Node { return adjacentPair(t, rep) }
	chainOf := func(t *testing.T, rep *analysis.Rep) []*graph.Node { return rep.Nodes()[1:11] }
	for _, tc := range []struct {
		model string
		group func(*testing.T, *analysis.Rep) []*graph.Node
	}{
		{"chain-4", pairOf},
		{"sd-unet", pairOf},
		{"chain-12", chainOf},
		{"vit-b", myelinGroup},
	} {
		var g *graph.Graph
		switch tc.model {
		case "chain-4":
			g = reluChain(4)
		case "chain-12":
			g = reluChain(12)
		default:
			var err error
			if g, err = models.Build(tc.model); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := analysis.NewRep(g)
		if err != nil {
			t.Fatal(err)
		}
		group := tc.group(t, rep)
		probeOpt := analysis.NewOptimizedRep(rep)
		var probe analysis.FusedOp
		if err := probeOpt.SetFusedOp(&probe, "probe", group); err != nil {
			t.Fatal(err)
		}
		io := probeOpt.AppendBoundary(nil, &probe)
		probeIns, probeOuts := io[:probe.NumInputs], io[probe.NumInputs:]
		ops := make([]analysis.FusedOp, calls)
		opts := make([]*analysis.OptimizedRep, calls)
		for i := range opts {
			opts[i] = analysis.NewOptimizedRep(rep)
		}
		var searchErr, fuseErr error
		var found []*graph.Node
		search := bytesPerCall(calls, func(i int) {
			found, searchErr = opts[i].GetSubgraphOpsByIO(nil, probeIns, probeOuts)
		})
		fuse := bytesPerCall(calls, func(i int) {
			fuseErr = opts[i].SetFusedOp(&ops[i], "group", group)
		})
		if searchErr != nil || fuseErr != nil {
			t.Fatalf("%s: search %v, fuse %v", tc.model, searchErr, fuseErr)
		}
		if !slices.Equal(found, probe.Nodes) {
			t.Fatalf("%s: search found %v, want %v", tc.model, found, probe.Nodes)
		}
		if search > maxBytes || fuse > maxBytes {
			t.Errorf("%s (%d nodes), %d-node group: GetSubgraphOpsByIO %d B/call, SetFusedOp %d B/call, want <= %d each",
				tc.model, rep.NodeCount(), len(group), search, fuse, maxBytes)
		}
	}
}
