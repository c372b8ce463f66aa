package graph

import "testing"

func TestEinsumDims(t *testing.T) {
	// Attention scores: bhid,bhjd->bhij.
	dims, out, err := EinsumDims("bhid,bhjd->bhij",
		Shape{2, 8, 196, 64}, Shape{2, 8, 196, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(Shape{2, 8, 196, 196}) {
		t.Errorf("out = %v", out)
	}
	if dims['d'] != 64 || dims['b'] != 2 {
		t.Errorf("dims = %v", dims)
	}

	// Plain matmul ij,jk->ik.
	_, out, err = EinsumDims("ij,jk->ik", Shape{3, 4}, Shape{4, 5})
	if err != nil || !out.Equal(Shape{3, 5}) {
		t.Errorf("matmul einsum = %v, %v", out, err)
	}
}

func TestEinsumMACs(t *testing.T) {
	macs, err := EinsumMACs("ij,jk->ik", Shape{3, 4}, Shape{4, 5})
	if err != nil || macs != 3*4*5 {
		t.Errorf("MACs = %d, %v", macs, err)
	}
	macs, err = EinsumMACs("bhid,bhjd->bhij", Shape{2, 8, 196, 64}, Shape{2, 8, 196, 64})
	if err != nil || macs != 2*8*196*196*64 {
		t.Errorf("attention MACs = %d, %v", macs, err)
	}
}

func TestEinsumErrors(t *testing.T) {
	cases := []struct {
		eq   string
		a, b Shape
	}{
		{"ij,jk", Shape{2, 3}, Shape{3, 4}},        // no output
		{"ij,jk,kl->il", Shape{2, 3}, Shape{3, 4}}, // 3 operands
		{"i...,j->ij", Shape{2}, Shape{3}},         // ellipsis
		{"ij,jk->ik", Shape{2, 3, 4}, Shape{3, 4}}, // rank mismatch
		{"ij,jk->ik", Shape{2, 3}, Shape{5, 4}},    // inconsistent j
		{"ij,jk->iq", Shape{2, 3}, Shape{3, 4}},    // unbound output index
	}
	for _, c := range cases {
		if _, _, err := EinsumDims(c.eq, c.a, c.b); err == nil {
			t.Errorf("EinsumDims(%q, %v, %v) should error", c.eq, c.a, c.b)
		}
	}
}

func TestInferEinsumAndFriends(t *testing.T) {
	g := New("ops")
	g.AddTensor(&Tensor{Name: "q", DType: Float16, Shape: Shape{2, 8, 16, 64}})
	g.AddTensor(&Tensor{Name: "k", DType: Float16, Shape: Shape{2, 8, 16, 64}})
	g.AddTensor(&Tensor{Name: "scores", DType: Float16})
	g.AddNode(&Node{Name: "e", OpType: "Einsum", Inputs: []string{"q", "k"}, Outputs: []string{"scores"},
		Attrs: Attrs{StringAttr("equation", "bhid,bhjd->bhij")}})

	g.AddTensor(&Tensor{Name: "am", DType: Int64})
	g.AddNode(&Node{Name: "argmax", OpType: "ArgMax", Inputs: []string{"scores"}, Outputs: []string{"am"},
		Attrs: MakeAttrs(IntAttr("axis", -1), IntAttr("keepdims", 0))})

	g.AddTensor(&Tensor{Name: "tv", DType: Float16})
	g.AddTensor(&Tensor{Name: "ti", DType: Int64})
	g.AddNode(&Node{Name: "topk", OpType: "TopK", Inputs: []string{"scores"}, Outputs: []string{"tv", "ti"},
		Attrs: MakeAttrs(IntAttr("k", 4), IntAttr("axis", -1))})

	g.AddTensor(&Tensor{Name: "s3", DType: Float16})
	g.AddNode(&Node{Name: "sum3", OpType: "Sum", Inputs: []string{"scores", "scores", "scores"}, Outputs: []string{"s3"}})

	g.Inputs = []string{"q", "k"}
	g.Outputs = []string{"am", "tv", "ti", "s3"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("scores").Shape.Equal(Shape{2, 8, 16, 16}) {
		t.Errorf("einsum out = %v", g.Tensor("scores").Shape)
	}
	if !g.Tensor("am").Shape.Equal(Shape{2, 8, 16}) || g.Tensor("am").DType != Int64 {
		t.Errorf("argmax out = %v %v", g.Tensor("am").Shape, g.Tensor("am").DType)
	}
	if !g.Tensor("tv").Shape.Equal(Shape{2, 8, 16, 4}) {
		t.Errorf("topk values = %v", g.Tensor("tv").Shape)
	}
	if g.Tensor("ti").DType != Int64 {
		t.Error("topk indices dtype")
	}
	if !g.Tensor("s3").Shape.Equal(Shape{2, 8, 16, 16}) {
		t.Errorf("sum out = %v", g.Tensor("s3").Shape)
	}
}
