package graph

import (
	"encoding/json"
	"testing"
)

// TestViewSharesNodesCopiesTensors: a view shares the admitted nodes,
// IO lists and order, and owns its tensors and graph-input shapes, so
// what a run writes — rebatching in place, dtype conversion, shape
// inference — never reaches the admitted graph or its digest.
func TestViewSharesNodesCopiesTensors(t *testing.T) {
	raw := New("chain")
	raw.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 8}})
	raw.AddTensor(&Tensor{Name: "h", DType: Float32})
	raw.AddTensor(&Tensor{Name: "y", DType: Float32})
	raw.AddNode(&Node{Name: "r0", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"h"}})
	raw.AddNode(&Node{Name: "r1", OpType: "Relu", Inputs: []string{"h"}, Outputs: []string{"y"}})
	raw.Inputs, raw.Outputs = []string{"x"}, []string{"y"}
	posted := raw.Digest()

	g, errs := Admit(raw)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if !g.Admitted() || raw.Admitted() {
		t.Fatal("Admit must return a new admitted graph and leave the raw one raw")
	}
	if again, _ := Admit(g); again != g {
		t.Error("admitting an admitted graph must return it unchanged")
	}
	// The edge's gate infers shapes on the admitted graph itself; the
	// digest stays that of the graph as posted.
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if g.Digest() != posted {
		t.Error("the admitted digest moved with shape inference")
	}
	before, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}

	v := g.View()
	if v.Admitted() || &v.Nodes[0] != &g.Nodes[0] {
		t.Fatal("a view must share the admitted nodes without being admitted itself")
	}
	if v.View().Tensor("x") == v.Tensor("x") {
		t.Fatal("each view must own its tensors")
	}
	v.Tensor("x").Shape[0] = 4
	v.ConvertFloatTensors(Float16)
	if err := v.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if got := v.Tensor("y").Shape; !got.Equal(Shape{4, 8}) {
		t.Errorf("view output shape %v, want [4 8]", got)
	}
	after, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("writing a view changed the admitted graph:\n%s\n%s", before, after)
	}
	order, ok := v.AdmittedOrder()
	if !ok || len(order) != 2 || order[0].Name != "r0" {
		t.Errorf("view order = %v, want the admitted [r0 r1]", order)
	}

	defer func() {
		if recover() == nil {
			t.Error("View of a raw graph must panic")
		}
	}()
	raw.View()
}

// TestViewLookupsZeroAlloc: a view resolves tensor names through the
// admission's slot table and node names through its name table, and
// neither lookup allocates.
func TestViewLookupsZeroAlloc(t *testing.T) {
	raw := New("pair")
	raw.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 8}})
	raw.AddTensor(&Tensor{Name: "y", DType: Float32})
	raw.AddNode(&Node{Name: "relu", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}})
	raw.Inputs, raw.Outputs = []string{"x"}, []string{"y"}
	g, errs := Admit(raw)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	v := g.View()
	if v.Tensor("y") == nil || v.Tensor("y") == g.Tensor("y") || v.Tensor("nope") != nil {
		t.Fatal("a view must resolve each registered name to its own copy, and nothing else")
	}
	if v.Node("relu") != g.Nodes[0] || v.Node("nope") != nil {
		t.Fatal("a view must resolve node names to the admitted nodes")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = v.Tensor("y"), v.Node("relu") }); allocs != 0 {
		t.Errorf("view lookups: %.0f allocs, want 0", allocs)
	}
}
