package graphops

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/models"
)

func reluChain(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 4}})
	for _, n := range []string{"a", "b", "y"} {
		g.AddTensor(&graph.Tensor{Name: n, DType: graph.Float32})
	}
	g.AddNode(&graph.Node{Name: "r1", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"a"}})
	g.AddNode(&graph.Node{Name: "id", OpType: "Identity", Inputs: []string{"a"}, Outputs: []string{"b"}})
	g.AddNode(&graph.Node{Name: "r2", OpType: "Relu", Inputs: []string{"b"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	return g
}

func TestEliminateIdentity(t *testing.T) {
	g := reluChain(t)
	if removed := EliminateIdentity(g); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if g.Node("id") != nil {
		t.Error("identity node still present")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid after pass: %v", err)
	}
	// r2 now consumes a directly.
	if g.Node("r2").Inputs[0] != "a" {
		t.Errorf("r2 input = %s", g.Node("r2").Inputs[0])
	}
}

func TestEliminateIdentityAtGraphOutput(t *testing.T) {
	g := reluChain(t)
	// Make the identity the final node.
	g.Nodes = g.Nodes[:2]
	delete(g.Tensors, "y")
	g.Outputs = []string{"b"}
	if removed := EliminateIdentity(g); removed != 1 {
		t.Fatalf("removed %d", removed)
	}
	if g.Outputs[0] != "a" {
		t.Errorf("graph output rewired to %s", g.Outputs[0])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEliminateDeadNodes(t *testing.T) {
	g := reluChain(t)
	// Add a dead branch.
	g.AddTensor(&graph.Tensor{Name: "dead", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "deadrelu", OpType: "Relu", Inputs: []string{"a"}, Outputs: []string{"dead"}})
	if removed := EliminateDeadNodes(g); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if g.Node("deadrelu") != nil || g.Tensor("dead") != nil {
		t.Error("dead branch still present")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Second run is a no-op.
	if removed := EliminateDeadNodes(g); removed != 0 {
		t.Error("second pass should remove nothing")
	}
}

func TestFoldConstantsShuffleChain(t *testing.T) {
	g, err := models.Build("shufflenetv2-1.0")
	if err != nil {
		t.Fatal(err)
	}
	before := len(g.Nodes)
	folded, err := FoldConstants(g)
	if err != nil {
		t.Fatal(err)
	}
	if folded == 0 {
		t.Fatal("shuffle chains should fold")
	}
	if len(g.Nodes) != before-folded {
		t.Errorf("node count %d, want %d", len(g.Nodes), before-folded)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid after folding: %v", err)
	}
	// Shape inference must still succeed (Reshape now reads folded
	// initializers).
	if err := g.InferShapes(); err != nil {
		t.Fatalf("inference after folding: %v", err)
	}
	// Static Constant nodes fold away; batch-dependent Shape chains
	// must survive so re-batching still works.
	constants := 0
	shapes := 0
	for _, n := range g.Nodes {
		switch n.OpType {
		case "Constant":
			constants++
		case "Shape":
			shapes++
		}
	}
	if constants != 0 {
		t.Errorf("%d static Constant nodes survived folding", constants)
	}
	if shapes == 0 {
		t.Error("batch-dependent Shape chains must not be folded")
	}
}

func TestFoldThenRebatch(t *testing.T) {
	g, err := models.Build("shufflenetv2-1.0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.NewRepWithBatch(g, 8)
	if err != nil {
		t.Fatalf("rebatch after folding must work: %v", err)
	}
	if got := g.Tensor(g.Outputs[0]).Shape[0]; got != 8 {
		t.Errorf("output batch = %d", got)
	}
	_ = rep
}

func TestFoldPreservesAnalysis(t *testing.T) {
	// Folding must not change the model's FLOP or (data) memory
	// totals: only metadata nodes disappear.
	for _, key := range []string{"shufflenetv2-1.0", "vit-t"} {
		g1, err := models.Build(key)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := analysis.NewRep(g1)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := models.Build(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Optimize(g2); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		r2, err := analysis.NewRep(g2)
		if err != nil {
			t.Fatal(err)
		}
		if r1.TotalCost().FLOP != r2.TotalCost().FLOP {
			t.Errorf("%s: FLOP changed %d -> %d", key, r1.TotalCost().FLOP, r2.TotalCost().FLOP)
		}
		if r2.NodeCount() >= r1.NodeCount() {
			t.Errorf("%s: optimization should shrink the graph (%d -> %d)",
				key, r1.NodeCount(), r2.NodeCount())
		}
	}
}

// update regenerates the Optimize fixture:
//
//	go test ./internal/graphops -run TestOptimizeAllModels -update
var update = flag.Bool("update", false, "rewrite the Optimize fixture")

// optimized is what Optimize makes of one zoo graph: the stats it
// returns and the optimized graph's Digest.
type optimized struct {
	Stats  OptimizeStats
	Digest string
}

// optimizedPath pins optimized per zoo graph, so a change to any pass
// that removes, folds or rewrites one more or one fewer node fails.
var optimizedPath = filepath.Join("testdata", "optimized.json")

func TestOptimizeAllModels(t *testing.T) {
	want := map[string]optimized{}
	if !*update {
		raw, err := os.ReadFile(optimizedPath)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]optimized{}
	for _, info := range models.List() {
		info := info
		t.Run(info.Key, func(t *testing.T) {
			g, err := info.Build()
			if err != nil {
				t.Fatal(err)
			}
			stats, err := Optimize(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("invalid after optimize: %v", err)
			}
			got[info.Key] = optimized{stats, g.Digest()}
			if w, ok := want[info.Key]; !*update && (!ok || w != got[info.Key]) {
				t.Errorf("Optimize = %+v, fixture %+v", got[info.Key], w)
			}
			if err := g.InferShapes(); err != nil {
				t.Fatalf("inference after optimize: %v", err)
			}
		})
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optimizedPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFoldDoesNotTouchGraphOutputs(t *testing.T) {
	// A shape chain whose result IS a graph output must stay a node.
	g := graph.New("out")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{2, 3}})
	g.AddTensor(&graph.Tensor{Name: "s", DType: graph.Int64})
	g.AddNode(&graph.Node{Name: "shape", OpType: "Shape", Inputs: []string{"x"}, Outputs: []string{"s"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"s"}
	folded, err := FoldConstants(g)
	if err != nil {
		t.Fatal(err)
	}
	if folded != 0 || g.Node("shape") == nil {
		t.Error("graph-output producer must not be folded away")
	}
}
