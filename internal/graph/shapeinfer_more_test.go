package graph

import (
	"strings"
	"testing"
)

// infer1 builds a single-node graph and returns the inferred output
// tensor.
func infer1(t *testing.T, inputs []*Tensor, node *Node, extraOutputs ...string) *Tensor {
	t.Helper()
	g := New("one")
	var inNames []string
	for _, in := range inputs {
		g.AddTensor(in)
		if !in.Param {
			inNames = append(inNames, in.Name)
		}
	}
	for _, out := range append([]string{node.Outputs[0]}, extraOutputs...) {
		g.AddTensor(&Tensor{Name: out})
	}
	g.AddNode(node)
	g.Inputs = inNames
	g.Outputs = node.Outputs
	if err := g.InferShapes(); err != nil {
		t.Fatalf("infer: %v", err)
	}
	return g.Tensor(node.Outputs[0])
}

func TestInferConvTranspose(t *testing.T) {
	out := infer1(t,
		[]*Tensor{
			{Name: "x", DType: Float32, Shape: Shape{1, 16, 8, 8}},
			{Name: "w", DType: Float32, Shape: Shape{16, 8, 2, 2}, Param: true},
		},
		&Node{Name: "ct", OpType: "ConvTranspose", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
			Attrs: MakeAttrs(IntsAttr("strides", 2, 2), IntsAttr("kernel_shape", 2, 2))})
	if !out.Shape.Equal(Shape{1, 8, 16, 16}) {
		t.Errorf("convtranspose out = %v", out.Shape)
	}
}

func TestInferFlattenSqueezeUnsqueeze(t *testing.T) {
	out := infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{2, 3, 4, 5}}},
		&Node{Name: "f", OpType: "Flatten", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{IntAttr("axis", 2)}})
	if !out.Shape.Equal(Shape{6, 20}) {
		t.Errorf("flatten = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{2, 1, 4, 1}}},
		&Node{Name: "s", OpType: "Squeeze", Inputs: []string{"x"}, Outputs: []string{"y"}})
	if !out.Shape.Equal(Shape{2, 4}) {
		t.Errorf("squeeze all = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{2, 1, 4}}},
		&Node{Name: "s", OpType: "Squeeze", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{IntsAttr("axes", 1)}})
	if !out.Shape.Equal(Shape{2, 4}) {
		t.Errorf("squeeze axis = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{2, 4}}},
		&Node{Name: "u", OpType: "Unsqueeze", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{IntsAttr("axes", 0, 2)}})
	if !out.Shape.Equal(Shape{1, 2, 1, 4}) {
		t.Errorf("unsqueeze = %v", out.Shape)
	}
}

func TestInferExpandPadCast(t *testing.T) {
	out := infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{1, 1, 4}}},
		&Node{Name: "e", OpType: "Expand", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{IntsAttr("shape", 2, 3, 4)}})
	if !out.Shape.Equal(Shape{2, 3, 4}) {
		t.Errorf("expand = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{1, 2, 4, 4}}},
		&Node{Name: "p", OpType: "Pad", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{IntsAttr("pads", 0, 0, 1, 1, 0, 0, 1, 1)}})
	if !out.Shape.Equal(Shape{1, 2, 6, 6}) {
		t.Errorf("pad = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{3}}},
		&Node{Name: "c", OpType: "Cast", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{StringAttr("to", "fp16")}})
	if out.DType != Float16 {
		t.Errorf("cast dtype = %v", out.DType)
	}
}

func TestInferWhereTileConstantOfShape(t *testing.T) {
	out := infer1(t,
		[]*Tensor{
			{Name: "c", DType: Bool, Shape: Shape{2, 1}},
			{Name: "a", DType: Float32, Shape: Shape{2, 3}},
			{Name: "b", DType: Float32, Shape: Shape{1, 3}},
		},
		&Node{Name: "w", OpType: "Where", Inputs: []string{"c", "a", "b"}, Outputs: []string{"y"}})
	if !out.Shape.Equal(Shape{2, 3}) {
		t.Errorf("where = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "x", DType: Float32, Shape: Shape{2, 3}}},
		&Node{Name: "t", OpType: "Tile", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: Attrs{IntsAttr("repeats", 2, 4)}})
	if !out.Shape.Equal(Shape{4, 12}) {
		t.Errorf("tile = %v", out.Shape)
	}

	out = infer1(t,
		[]*Tensor{{Name: "s", DType: Int64, Shape: Shape{2}, Param: true, IntData: []int64{3, 5}}},
		&Node{Name: "cos", OpType: "ConstantOfShape", Inputs: []string{"s"}, Outputs: []string{"y"}})
	if !out.Shape.Equal(Shape{3, 5}) {
		t.Errorf("constantofshape = %v", out.Shape)
	}
}

func TestInferConstantNodeForms(t *testing.T) {
	out := infer1(t, nil,
		&Node{Name: "k", OpType: "Constant", Outputs: []string{"y"},
			Attrs: Attrs{IntsAttr("value_ints", 7, 8, 9)}})
	if !out.Shape.Equal(Shape{3}) || out.DType != Int64 {
		t.Errorf("constant ints = %v %v", out.Shape, out.DType)
	}
	out = infer1(t, nil,
		&Node{Name: "k", OpType: "Constant", Outputs: []string{"y"},
			Attrs: Attrs{FloatAttr("value_float", 0.5)}})
	if !out.Shape.Equal(Shape{1}) || out.DType != Float32 {
		t.Errorf("constant float = %v %v", out.Shape, out.DType)
	}
	// Constant without a value errors.
	g := New("bad")
	g.AddTensor(&Tensor{Name: "y"})
	g.AddNode(&Node{Name: "k", OpType: "Constant", Outputs: []string{"y"}})
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err == nil {
		t.Error("valueless Constant should error")
	}
}

func TestShapeChainArithmetic(t *testing.T) {
	// Shape -> Gather -> Mul with a constant -> Concat -> Reshape:
	// exercises evalIntBinary value propagation.
	g := New("arith")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{2, 6}})
	g.AddTensor(&Tensor{Name: "shp", DType: Int64})
	g.AddTensor(&Tensor{Name: "idx", DType: Int64, Shape: Shape{1}, Param: true, IntData: []int64{1}})
	g.AddTensor(&Tensor{Name: "six", DType: Int64})
	g.AddTensor(&Tensor{Name: "two", DType: Int64, Shape: Shape{1}, Param: true, IntData: []int64{2}})
	g.AddTensor(&Tensor{Name: "twelve", DType: Int64})
	g.AddTensor(&Tensor{Name: "lead", DType: Int64, Shape: Shape{1}, Param: true, IntData: []int64{1}})
	g.AddTensor(&Tensor{Name: "tgt", DType: Int64})
	g.AddTensor(&Tensor{Name: "y", DType: Float32})
	g.AddNode(&Node{Name: "shape", OpType: "Shape", Inputs: []string{"x"}, Outputs: []string{"shp"}})
	g.AddNode(&Node{Name: "gather", OpType: "Gather", Inputs: []string{"shp", "idx"}, Outputs: []string{"six"}})
	g.AddNode(&Node{Name: "mul", OpType: "Mul", Inputs: []string{"six", "two"}, Outputs: []string{"twelve"}})
	g.AddNode(&Node{Name: "cat", OpType: "Concat", Inputs: []string{"lead", "twelve"}, Outputs: []string{"tgt"},
		Attrs: Attrs{IntAttr("axis", 0)}})
	g.AddNode(&Node{Name: "reshape", OpType: "Reshape", Inputs: []string{"x", "tgt"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("y").Shape.Equal(Shape{1, 12}) {
		t.Errorf("reshape via arithmetic chain = %v", g.Tensor("y").Shape)
	}
}

func TestIncrementalInference(t *testing.T) {
	g := New("inc")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 4}})
	g.Inputs = []string{"x"}
	inf := NewIncrementalInference(g)
	g.AddTensor(&Tensor{Name: "y"})
	n := &Node{Name: "r", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}}
	g.AddNode(n)
	if err := inf.InferNode(n); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("y").Shape.Equal(Shape{1, 4}) {
		t.Errorf("incremental = %v", g.Tensor("y").Shape)
	}
}

func TestGraphHelpers(t *testing.T) {
	g := tinyGraph()
	if g.Node("r1") == nil || g.Node("missing") != nil {
		t.Error("Node lookup")
	}
	if s := g.Nodes[0].String(); !strings.Contains(s, "Relu") || !strings.Contains(s, "r1") {
		t.Errorf("node String = %q", s)
	}
	names := g.SortedTensorNames()
	if len(names) != 3 || names[0] != "in" {
		t.Errorf("SortedTensorNames = %v", names)
	}
	g.ConvertFloatTensors(Float16)
	if g.Tensor("in").DType != Float16 {
		t.Error("ConvertFloatTensors")
	}
}
