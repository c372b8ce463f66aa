package analysis

import (
	"testing"

	"proof/internal/graph"
)

// unaryNode builds a 1-in-1-out node of the given type over an
// 8x16-element fp32 tensor and returns its cost.
func unaryCost(t *testing.T, opType string) Cost {
	t.Helper()
	g := graph.New("u")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{8, 16}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{8, 16}})
	n := &graph.Node{Name: "n", OpType: opType, Inputs: []string{"x"}, Outputs: []string{"y"}}
	g.AddNode(n)
	c, err := NodeCost(n, g)
	if err != nil {
		t.Fatalf("%s: %v", opType, err)
	}
	return c
}

// TestElementwiseWeightsApplied checks every registered basic-op weight
// against the rule FLOP = weight x elements.
func TestElementwiseWeightsApplied(t *testing.T) {
	const elems = 8 * 16
	for op, weight := range basicOpFLOP {
		switch op {
		// Binary/ternary ops need two inputs; tested separately.
		case "Add", "Sub", "Mul", "Div", "Min", "Max", "Pow", "Mod",
			"PRelu", "Equal", "Greater", "Less", "GreaterOrEqual",
			"LessOrEqual", "And", "Or", "Where":
			continue
		}
		c := unaryCost(t, op)
		if c.FLOP != weight*elems {
			t.Errorf("%s: FLOP = %d, want %d", op, c.FLOP, weight*elems)
		}
		if c.ReadBytes != elems*4 || c.WriteBytes != elems*4 {
			t.Errorf("%s: memory = %d/%d", op, c.ReadBytes, c.WriteBytes)
		}
	}
}

func TestBinaryOpCosts(t *testing.T) {
	g := graph.New("b")
	g.AddTensor(&graph.Tensor{Name: "a", DType: graph.Float32, Shape: graph.Shape{4, 8}})
	g.AddTensor(&graph.Tensor{Name: "b", DType: graph.Float32, Shape: graph.Shape{4, 8}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{4, 8}})
	for _, op := range []string{"Add", "Mul", "Div", "Pow", "Max"} {
		n := &graph.Node{Name: "n", OpType: op, Inputs: []string{"a", "b"}, Outputs: []string{"y"}}
		c, err := NodeCost(n, g)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if c.FLOP != basicOpFLOP[op]*32 {
			t.Errorf("%s: FLOP = %d", op, c.FLOP)
		}
		if c.ReadBytes != 2*32*4 {
			t.Errorf("%s: reads both operands: %d", op, c.ReadBytes)
		}
	}
}

func TestZeroCopyOpsAreFree(t *testing.T) {
	for op := range zeroCopyOps {
		g := graph.New("z")
		g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{4, 4}})
		g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{4, 4}})
		inputs := []string{"x"}
		if op == "Constant" {
			inputs = nil
		}
		n := &graph.Node{Name: "n", OpType: op, Inputs: inputs, Outputs: []string{"y"}}
		c, err := NodeCost(n, g)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if c.FLOP != 0 || c.MemoryBytes() != 0 {
			t.Errorf("%s must be free, got %+v", op, c)
		}
	}
}

func TestCopyOpsMoveBytes(t *testing.T) {
	for op := range copyOps {
		if op == "ConstantOfShape" {
			continue // shape-input form tested elsewhere
		}
		g := graph.New("c")
		g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{4, 4}})
		g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float16, Shape: graph.Shape{4, 4}})
		n := &graph.Node{Name: "n", OpType: op, Inputs: []string{"x"}, Outputs: []string{"y"}}
		c, err := NodeCost(n, g)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if c.FLOP != 0 {
			t.Errorf("%s: copy op has FLOP %d", op, c.FLOP)
		}
		if c.ReadBytes != 32 || c.WriteBytes != 32 {
			t.Errorf("%s: memory %d/%d, want 32/32", op, c.ReadBytes, c.WriteBytes)
		}
	}
}

func TestDepthwiseConvCost(t *testing.T) {
	g := graph.New("dw")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 16, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{16, 1, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	n := &graph.Node{Name: "c", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntAttr("group", 16), graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))}
	g.AddNode(n)
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	c, err := NodeCost(n, g)
	if err != nil {
		t.Fatal(err)
	}
	// MACs = out elems (16*8*8) * cin/g (1) * 9.
	want := int64(16*8*8) * 9
	if c.MACs != want {
		t.Errorf("dw MACs = %d, want %d", c.MACs, want)
	}
}

func TestSoftmaxAndNormCosts(t *testing.T) {
	c := unaryCost(t, "Softmax")
	if c.FLOP != 11*128 {
		t.Errorf("softmax FLOP = %d", c.FLOP)
	}
	g := graph.New("ln")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{2, 64}})
	g.AddTensor(&graph.Tensor{Name: "s", DType: graph.Float32, Shape: graph.Shape{64}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "b", DType: graph.Float32, Shape: graph.Shape{64}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{2, 64}})
	n := &graph.Node{Name: "ln", OpType: "LayerNormalization",
		Inputs: []string{"x", "s", "b"}, Outputs: []string{"y"}}
	c2, err := NodeCost(n, g)
	if err != nil {
		t.Fatal(err)
	}
	if c2.FLOP != 8*128 {
		t.Errorf("layernorm FLOP = %d", c2.FLOP)
	}
	if c2.ParamBytes != 2*64*4 {
		t.Errorf("layernorm params = %d", c2.ParamBytes)
	}
}

func TestPoolingCosts(t *testing.T) {
	g := graph.New("p")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	n := &graph.Node{Name: "p", OpType: "MaxPool", Inputs: []string{"x"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("kernel_shape", 2, 2), graph.IntsAttr("strides", 2, 2))}
	g.AddNode(n)
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	c, err := NodeCost(n, g)
	if err != nil {
		t.Fatal(err)
	}
	// 4 window ops per output element (8*4*4 outputs).
	if c.FLOP != int64(8*4*4)*4 {
		t.Errorf("maxpool FLOP = %d", c.FLOP)
	}

	gap := &graph.Node{Name: "g", OpType: "GlobalAveragePool", Inputs: []string{"x"}, Outputs: []string{"y"}}
	g.Tensors["y"].Shape = graph.Shape{1, 8, 1, 1}
	cg, err := NodeCost(gap, g)
	if err != nil {
		t.Fatal(err)
	}
	if cg.FLOP != 8*8*8 {
		t.Errorf("GAP FLOP = %d", cg.FLOP)
	}
}

func TestGemmConvTransposeEinsumCosts(t *testing.T) {
	g := graph.New("dense")
	g.AddTensor(&graph.Tensor{Name: "a", DType: graph.Float32, Shape: graph.Shape{4, 32}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{16, 32}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "b", DType: graph.Float32, Shape: graph.Shape{16}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	gemm := &graph.Node{Name: "fc", OpType: "Gemm", Inputs: []string{"a", "w", "b"}, Outputs: []string{"y"},
		Attrs: graph.Attrs{graph.IntAttr("transB", 1)}}
	g.AddNode(gemm)
	g.Inputs = []string{"a"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	c, err := NodeCost(gemm, g)
	if err != nil {
		t.Fatal(err)
	}
	wantMACs := int64(4 * 16 * 32)
	if c.MACs != wantMACs || c.FLOP != 2*wantMACs+4*16 {
		t.Errorf("gemm cost = %+v", c)
	}

	// ConvTranspose.
	g2 := graph.New("ct")
	g2.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 4, 4}})
	g2.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{8, 4, 2, 2}, Param: true})
	g2.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	ct := &graph.Node{Name: "ct", OpType: "ConvTranspose", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("strides", 2, 2), graph.IntsAttr("kernel_shape", 2, 2))}
	g2.AddNode(ct)
	g2.Inputs = []string{"x"}
	g2.Outputs = []string{"y"}
	if err := g2.InferShapes(); err != nil {
		t.Fatal(err)
	}
	cc, err := NodeCost(ct, g2)
	if err != nil {
		t.Fatal(err)
	}
	// MACs = inElems (8*16) * coutPerGroup (4) * k (4).
	if cc.MACs != 8*16*4*4 {
		t.Errorf("convtranspose MACs = %d", cc.MACs)
	}

	// Einsum.
	g3 := graph.New("es")
	g3.AddTensor(&graph.Tensor{Name: "p", DType: graph.Float32, Shape: graph.Shape{3, 4}})
	g3.AddTensor(&graph.Tensor{Name: "q", DType: graph.Float32, Shape: graph.Shape{4, 5}})
	g3.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	es := &graph.Node{Name: "es", OpType: "Einsum", Inputs: []string{"p", "q"}, Outputs: []string{"y"},
		Attrs: graph.Attrs{graph.StringAttr("equation", "ij,jk->ik")}}
	g3.AddNode(es)
	g3.Inputs = []string{"p", "q"}
	g3.Outputs = []string{"y"}
	if err := g3.InferShapes(); err != nil {
		t.Fatal(err)
	}
	ce, err := NodeCost(es, g3)
	if err != nil {
		t.Fatal(err)
	}
	if ce.MACs != 3*4*5 {
		t.Errorf("einsum MACs = %d", ce.MACs)
	}
}

func TestReduceTopKSumCosts(t *testing.T) {
	g := graph.New("r")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{2, 8}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{2, 1}})
	rm := &graph.Node{Name: "rm", OpType: "ReduceMean", Inputs: []string{"x"}, Outputs: []string{"y"},
		Attrs: graph.Attrs{graph.IntsAttr("axes", 1)}}
	c, err := NodeCost(rm, g)
	if err != nil || c.FLOP != 16 {
		t.Errorf("reduce cost = %+v, %v", c, err)
	}

	g.AddTensor(&graph.Tensor{Name: "tv", DType: graph.Float32, Shape: graph.Shape{2, 3}})
	g.AddTensor(&graph.Tensor{Name: "ti", DType: graph.Int64, Shape: graph.Shape{2, 3}})
	tk := &graph.Node{Name: "tk", OpType: "TopK", Inputs: []string{"x"}, Outputs: []string{"tv", "ti"},
		Attrs: graph.Attrs{graph.IntAttr("k", 3)}}
	c, err = NodeCost(tk, g)
	if err != nil || c.FLOP != 32 {
		t.Errorf("topk cost = %+v, %v", c, err)
	}

	g.AddTensor(&graph.Tensor{Name: "s", DType: graph.Float32, Shape: graph.Shape{2, 8}})
	sum := &graph.Node{Name: "s3", OpType: "Sum", Inputs: []string{"x", "x", "x"}, Outputs: []string{"s"}}
	c, err = NodeCost(sum, g)
	if err != nil || c.FLOP != 2*16 {
		t.Errorf("sum cost = %+v, %v", c, err)
	}
}

func TestCostStringAndRepAccessors(t *testing.T) {
	c := Cost{FLOP: 2e9, ReadBytes: 5e5, WriteBytes: 5e5}
	if s := c.String(); s == "" {
		t.Error("Cost.String empty")
	}
	g := convBlock(t, 1)
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeCount() != 3 || len(r.Nodes()) != 3 {
		t.Errorf("rep accessors: %d nodes", r.NodeCount())
	}
}

func TestRegisterCustomOp(t *testing.T) {
	RegisterOp(opFunc{typ: "MyCustomOp", fn: func(n *graph.Node, g *graph.Graph) (Cost, error) {
		return Cost{FLOP: 42}, nil
	}})
	defer delete(opRegistry, "MyCustomOp")
	if _, ok := LookupOp("MyCustomOp"); !ok {
		t.Fatal("custom op not registered")
	}
	g := graph.New("x")
	n := &graph.Node{Name: "n", OpType: "MyCustomOp"}
	c, err := NodeCost(n, g)
	if err != nil || c.FLOP != 42 {
		t.Errorf("custom op cost = %+v, %v", c, err)
	}
}
