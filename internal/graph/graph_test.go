package graph

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDataTypeSizeAndString(t *testing.T) {
	cases := []struct {
		dt   DataType
		size int
		name string
	}{
		{Float32, 4, "fp32"},
		{Float16, 2, "fp16"},
		{BFloat16, 2, "bf16"},
		{Int8, 1, "int8"},
		{Int32, 4, "int32"},
		{Int64, 8, "int64"},
		{Bool, 1, "bool"},
	}
	for _, c := range cases {
		if got := c.dt.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.dt, got, c.size)
		}
		if got := c.dt.String(); got != c.name {
			t.Errorf("String() = %q, want %q", got, c.name)
		}
		back, err := ParseDataType(c.name)
		if err != nil || back != c.dt {
			t.Errorf("ParseDataType(%q) = %v, %v", c.name, back, err)
		}
	}
	if _, err := ParseDataType("nope"); err == nil {
		t.Error("ParseDataType should reject unknown names")
	}
	if DTypeInvalid.Valid() {
		t.Error("DTypeInvalid must not be Valid")
	}
	// Every value, in range or not, answers as the maps the type table
	// replaced did.
	names := map[DataType]string{DTypeInvalid: "invalid", Float32: "fp32", Float16: "fp16",
		BFloat16: "bf16", Int8: "int8", Int32: "int32", Int64: "int64", Bool: "bool"}
	sizes := map[DataType]int{Float32: 4, Float16: 2, BFloat16: 2, Int8: 1, Int32: 4, Int64: 8, Bool: 1}
	for d := DataType(-2); d <= 10; d++ {
		name, ok := names[d]
		if !ok {
			name = fmt.Sprintf("DataType(%d)", int(d))
		}
		if got := d.String(); got != name {
			t.Errorf("DataType(%d).String() = %q, want %q", int(d), got, name)
		}
		size, valid := sizes[d]
		if d.Valid() != valid {
			t.Errorf("DataType(%d).Valid() = %v, want %v", int(d), d.Valid(), valid)
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) == valid {
					t.Errorf("DataType(%d).Size() panics: %v, want a panic: %v", int(d), r, !valid)
				}
			}()
			if got := d.Size(); got != size {
				t.Errorf("DataType(%d).Size() = %d, want %d", int(d), got, size)
			}
		}()
	}
}

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.NumElements() != 24 {
		t.Errorf("NumElements = %d", s.NumElements())
	}
	if s.Rank() != 3 {
		t.Errorf("Rank = %d", s.Rank())
	}
	if !s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Equal misbehaves")
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Error("Clone must not alias")
	}
	if Shape(nil).NumElements() != 0 {
		t.Error("nil shape should have 0 elements")
	}
	if (Shape{}).NumElements() != 1 {
		t.Error("scalar shape should have 1 element")
	}
	if !(Shape{1, 2}).Valid() || (Shape{1, 0}).Valid() || Shape(nil).Valid() {
		t.Error("Valid misbehaves")
	}
}

func TestAttrs(t *testing.T) {
	a := MakeAttrs(IntAttr("i", 3), IntsAttr("is", 1, 2), FloatAttr("f", 0.5), StringAttr("s", "x"))
	if a.Int("i", 0) != 3 || a.Int("missing", 7) != 7 {
		t.Error("Int attr")
	}
	if got := a.Ints("is", nil); len(got) != 2 || got[0] != 1 {
		t.Error("Ints attr")
	}
	if a.Float("f", 0) != 0.5 || a.String("s", "") != "x" {
		t.Error("Float/String attr")
	}
	if v, ok := MakeAttrs(IntsAttr("e")).Get("e"); !ok || v.Kind != AttrInts {
		t.Error("an int list with no ints must count as present")
	}
	if _, ok := a.Get("missing"); ok {
		t.Error("Get found a missing attribute")
	}
	c := a.Clone()
	cv, _ := c.Get("is")
	cv.Ints[0] = 99
	if av, _ := a.Get("is"); av.Ints[0] != 1 {
		t.Error("Clone must deep-copy int lists")
	}
	want := Attrs{FloatAttr("f", 0.5), IntAttr("i", 3), IntsAttr("is", 1, 2), StringAttr("s", "x")}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("MakeAttrs: %v, want the list sorted by name", a)
	}
	got := MakeAttrs(IntAttr("b", 1), IntAttr("a", 2), IntAttr("b", 3))
	if !reflect.DeepEqual(got, Attrs{IntAttr("a", 2), IntAttr("b", 3)}) {
		t.Errorf("MakeAttrs: %v, want the last of a repeated name kept", got)
	}
}

// tinyGraph builds  in -> Relu -> mid -> Relu -> out.
func tinyGraph() *Graph {
	g := New("tiny")
	g.AddTensor(&Tensor{Name: "in", DType: Float32, Shape: Shape{1, 4}})
	g.AddTensor(&Tensor{Name: "mid", DType: Float32})
	g.AddTensor(&Tensor{Name: "out", DType: Float32})
	g.AddNode(&Node{Name: "r1", OpType: "Relu", Inputs: []string{"in"}, Outputs: []string{"mid"}})
	g.AddNode(&Node{Name: "r2", OpType: "Relu", Inputs: []string{"mid"}, Outputs: []string{"out"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"out"}
	return g
}

func TestGraphValidateAndTopo(t *testing.T) {
	g := tinyGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "r1" || order[1].Name != "r2" {
		t.Errorf("topo order wrong: %v", order)
	}
	if g.Producer("mid").Name != "r1" {
		t.Error("Producer(mid)")
	}
	if cs := g.Consumers("mid"); len(cs) != 1 || cs[0].Name != "r2" {
		t.Error("Consumers(mid)")
	}
	if g.Producer("in") != nil {
		t.Error("graph input must have no producer")
	}
}

func TestGraphValidateErrors(t *testing.T) {
	g := tinyGraph()
	g.AddNode(&Node{Name: "r1", OpType: "Relu", Inputs: []string{"in"}, Outputs: []string{"out2"}})
	g.AddTensor(&Tensor{Name: "out2", DType: Float32})
	if err := g.Validate(); err == nil {
		t.Error("duplicate node name should fail validation")
	}

	g = tinyGraph()
	g.Nodes[1].Inputs[0] = "ghost"
	if err := g.Validate(); err == nil {
		t.Error("unregistered input tensor should fail validation")
	}

	// Cycle: r1 consumes out, r2 produces out from mid.
	g = New("cyc")
	for _, name := range []string{"a", "b"} {
		g.AddTensor(&Tensor{Name: name, DType: Float32, Shape: Shape{1}})
	}
	g.AddNode(&Node{Name: "n1", OpType: "Relu", Inputs: []string{"b"}, Outputs: []string{"a"}})
	g.AddNode(&Node{Name: "n2", OpType: "Relu", Inputs: []string{"a"}, Outputs: []string{"b"}})
	if err := g.Validate(); err == nil {
		t.Error("cycle should fail validation")
	}
}

func TestGraphClone(t *testing.T) {
	g := tinyGraph()
	c := g.Clone()
	c.Nodes[0].Name = "zzz"
	c.Tensors["in"].Shape[0] = 99
	if g.Nodes[0].Name != "r1" || g.Tensors["in"].Shape[0] != 1 {
		t.Error("Clone must deep-copy nodes and tensors")
	}
}

func TestParamAccounting(t *testing.T) {
	g := New("p")
	g.AddTensor(&Tensor{Name: "w", DType: Float32, Shape: Shape{10, 10}, Param: true})
	g.AddTensor(&Tensor{Name: "x", DType: Float16, Shape: Shape{2, 10}})
	if g.ParamCount() != 100 {
		t.Errorf("ParamCount = %d", g.ParamCount())
	}
}

func TestBroadcast(t *testing.T) {
	cases := []struct {
		a, b, want Shape
		err        bool
	}{
		{Shape{2, 3}, Shape{2, 3}, Shape{2, 3}, false},
		{Shape{2, 3}, Shape{3}, Shape{2, 3}, false},
		{Shape{2, 1, 4}, Shape{3, 1}, Shape{2, 3, 4}, false},
		{Shape{1}, Shape{5, 5}, Shape{5, 5}, false},
		{Shape{2, 3}, Shape{4}, nil, true},
	}
	for _, c := range cases {
		got, err := broadcast(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("broadcast(%v,%v) should error", c.a, c.b)
			}
			continue
		}
		if err != nil || !got.Equal(c.want) {
			t.Errorf("broadcast(%v,%v) = %v, %v; want %v", c.a, c.b, got, err, c.want)
		}
	}
}

func TestBroadcastProperties(t *testing.T) {
	// Broadcasting is commutative and idempotent when it succeeds.
	f := func(dims []uint8) bool {
		if len(dims) == 0 {
			dims = []uint8{1}
		}
		if len(dims) > 4 {
			dims = dims[:4]
		}
		a := make(Shape, len(dims))
		for i, d := range dims {
			a[i] = int(d%4) + 1
		}
		b := a.Clone()
		// b with some dims set to 1 still broadcasts with a -> a.
		for i := range b {
			if i%2 == 0 {
				b[i] = 1
			}
		}
		ab, err1 := broadcast(a, b)
		ba, err2 := broadcast(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab.Equal(a) && ba.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInferShapesConvPoolChain(t *testing.T) {
	g := New("cnn")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 3, 224, 224}})
	g.AddTensor(&Tensor{Name: "w", DType: Float32, Shape: Shape{64, 3, 7, 7}, Param: true})
	g.AddTensor(&Tensor{Name: "c1", DType: Float32})
	g.AddTensor(&Tensor{Name: "p1", DType: Float32})
	g.AddTensor(&Tensor{Name: "gap", DType: Float32})
	g.AddNode(&Node{Name: "conv", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"c1"},
		Attrs: MakeAttrs(IntsAttr("strides", 2, 2), IntsAttr("pads", 3, 3, 3, 3), IntsAttr("kernel_shape", 7, 7))})
	g.AddNode(&Node{Name: "pool", OpType: "MaxPool", Inputs: []string{"c1"}, Outputs: []string{"p1"},
		Attrs: MakeAttrs(IntsAttr("kernel_shape", 3, 3), IntsAttr("strides", 2, 2), IntsAttr("pads", 1, 1, 1, 1))})
	g.AddNode(&Node{Name: "g", OpType: "GlobalAveragePool", Inputs: []string{"p1"}, Outputs: []string{"gap"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"gap"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("c1").Shape.Equal(Shape{1, 64, 112, 112}) {
		t.Errorf("conv out = %v", g.Tensor("c1").Shape)
	}
	if !g.Tensor("p1").Shape.Equal(Shape{1, 64, 56, 56}) {
		t.Errorf("pool out = %v", g.Tensor("p1").Shape)
	}
	if !g.Tensor("gap").Shape.Equal(Shape{1, 64, 1, 1}) {
		t.Errorf("gap out = %v", g.Tensor("gap").Shape)
	}
}

func TestInferShapesMatMulBroadcast(t *testing.T) {
	g := New("mm")
	g.AddTensor(&Tensor{Name: "a", DType: Float32, Shape: Shape{8, 12, 64, 32}})
	g.AddTensor(&Tensor{Name: "b", DType: Float32, Shape: Shape{8, 12, 32, 64}})
	g.AddTensor(&Tensor{Name: "y", DType: Float32})
	g.AddNode(&Node{Name: "mm", OpType: "MatMul", Inputs: []string{"a", "b"}, Outputs: []string{"y"}})
	g.Inputs = []string{"a", "b"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("y").Shape.Equal(Shape{8, 12, 64, 64}) {
		t.Errorf("matmul out = %v", g.Tensor("y").Shape)
	}
}

func TestInferShapesGemmTranspose(t *testing.T) {
	g := New("gemm")
	g.AddTensor(&Tensor{Name: "a", DType: Float16, Shape: Shape{4, 128}})
	g.AddTensor(&Tensor{Name: "w", DType: Float16, Shape: Shape{256, 128}, Param: true})
	g.AddTensor(&Tensor{Name: "bias", DType: Float16, Shape: Shape{256}, Param: true})
	g.AddTensor(&Tensor{Name: "y", DType: Float16})
	g.AddNode(&Node{Name: "fc", OpType: "Gemm", Inputs: []string{"a", "w", "bias"}, Outputs: []string{"y"},
		Attrs: Attrs{IntAttr("transB", 1)}})
	g.Inputs = []string{"a"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("y").Shape.Equal(Shape{4, 256}) {
		t.Errorf("gemm out = %v", g.Tensor("y").Shape)
	}
	if g.Tensor("y").DType != Float16 {
		t.Errorf("gemm dtype = %v", g.Tensor("y").DType)
	}
}

func TestInferShapesShuffleChain(t *testing.T) {
	// The channel-shuffle pattern as exported to ONNX:
	// Shape -> Gather -> shape math -> Concat -> Reshape -> Transpose -> Reshape.
	g := New("shuffle")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{2, 8, 4, 4}})
	g.AddTensor(&Tensor{Name: "shp", DType: Int64})
	g.AddTensor(&Tensor{Name: "idx0", DType: Int64, Shape: Shape{1}, Param: true, IntData: []int64{0}})
	g.AddTensor(&Tensor{Name: "n", DType: Int64})
	g.AddTensor(&Tensor{Name: "rest", DType: Int64, Shape: Shape{4}, Param: true, IntData: []int64{2, 4, 4, 4}})
	g.AddTensor(&Tensor{Name: "tgt", DType: Int64})
	g.AddTensor(&Tensor{Name: "r1", DType: Float32})
	g.AddTensor(&Tensor{Name: "tp", DType: Float32})
	g.AddTensor(&Tensor{Name: "out", DType: Float32})
	g.AddNode(&Node{Name: "shape", OpType: "Shape", Inputs: []string{"x"}, Outputs: []string{"shp"}})
	g.AddNode(&Node{Name: "gather", OpType: "Gather", Inputs: []string{"shp", "idx0"}, Outputs: []string{"n"}})
	g.AddNode(&Node{Name: "concat", OpType: "Concat", Inputs: []string{"n", "rest"}, Outputs: []string{"tgt"},
		Attrs: Attrs{IntAttr("axis", 0)}})
	g.AddNode(&Node{Name: "reshape1", OpType: "Reshape", Inputs: []string{"x", "tgt"}, Outputs: []string{"r1"}})
	g.AddNode(&Node{Name: "transp", OpType: "Transpose", Inputs: []string{"r1"}, Outputs: []string{"tp"},
		Attrs: Attrs{IntsAttr("perm", 0, 2, 1, 3, 4)}})
	g.AddNode(&Node{Name: "reshape2", OpType: "Reshape", Inputs: []string{"tp"}, Outputs: []string{"out"},
		Attrs: Attrs{IntsAttr("shape", 0, -1, 4, 4)}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"out"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("r1").Shape.Equal(Shape{2, 2, 4, 4, 4}) {
		t.Errorf("reshape1 out = %v", g.Tensor("r1").Shape)
	}
	if !g.Tensor("tp").Shape.Equal(Shape{2, 4, 2, 4, 4}) {
		t.Errorf("transpose out = %v", g.Tensor("tp").Shape)
	}
	if !g.Tensor("out").Shape.Equal(Shape{2, 8, 4, 4}) {
		t.Errorf("reshape2 out = %v", g.Tensor("out").Shape)
	}
	// The values the pass propagated, by name, on the raw graph and on
	// a view, which keeps them by slot.
	want := map[string][]int64{"shp": {2, 8, 4, 4}, "idx0": {0}, "n": {2}, "rest": {2, 4, 4, 4}, "tgt": {2, 2, 4, 4, 4}}
	a, errs := Admit(g.Clone())
	if errs != nil {
		t.Fatal(errs)
	}
	for _, h := range []*Graph{g, a.View()} {
		if got, err := h.KnownValues(); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("KnownValues (view: %v) = %v, %v; want %v", h.isView(), got, err, want)
		}
	}
}

func TestInferShapesSliceConcatSplit(t *testing.T) {
	g := New("scs")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 16, 8, 8}})
	g.AddTensor(&Tensor{Name: "s1", DType: Float32})
	g.AddTensor(&Tensor{Name: "s2", DType: Float32})
	g.AddTensor(&Tensor{Name: "cat", DType: Float32})
	g.AddTensor(&Tensor{Name: "sp1", DType: Float32})
	g.AddTensor(&Tensor{Name: "sp2", DType: Float32})
	g.AddNode(&Node{Name: "sl1", OpType: "Slice", Inputs: []string{"x"}, Outputs: []string{"s1"},
		Attrs: MakeAttrs(IntsAttr("starts", 0), IntsAttr("ends", 8), IntsAttr("axes", 1))})
	g.AddNode(&Node{Name: "sl2", OpType: "Slice", Inputs: []string{"x"}, Outputs: []string{"s2"},
		Attrs: MakeAttrs(IntsAttr("starts", 8), IntsAttr("ends", 16), IntsAttr("axes", 1))})
	g.AddNode(&Node{Name: "cat", OpType: "Concat", Inputs: []string{"s1", "s2"}, Outputs: []string{"cat"},
		Attrs: Attrs{IntAttr("axis", 1)}})
	g.AddNode(&Node{Name: "split", OpType: "Split", Inputs: []string{"cat"}, Outputs: []string{"sp1", "sp2"},
		Attrs: Attrs{IntAttr("axis", 1)}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"sp1", "sp2"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2", "sp1", "sp2"} {
		if !g.Tensor(name).Shape.Equal(Shape{1, 8, 8, 8}) {
			t.Errorf("%s = %v", name, g.Tensor(name).Shape)
		}
	}
	if !g.Tensor("cat").Shape.Equal(Shape{1, 16, 8, 8}) {
		t.Errorf("cat = %v", g.Tensor("cat").Shape)
	}
}

func TestInferShapesReduceAndResize(t *testing.T) {
	g := New("rr")
	g.AddTensor(&Tensor{Name: "x", DType: Float16, Shape: Shape{2, 32, 16, 16}})
	g.AddTensor(&Tensor{Name: "m", DType: Float16})
	g.AddTensor(&Tensor{Name: "u", DType: Float16})
	g.AddNode(&Node{Name: "rm", OpType: "ReduceMean", Inputs: []string{"x"}, Outputs: []string{"m"},
		Attrs: MakeAttrs(IntsAttr("axes", 2, 3), IntAttr("keepdims", 1))})
	g.AddNode(&Node{Name: "up", OpType: "Resize", Inputs: []string{"x"}, Outputs: []string{"u"},
		Attrs: Attrs{IntsAttr("scales", 1, 1, 2, 2)}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"m", "u"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("m").Shape.Equal(Shape{2, 32, 1, 1}) {
		t.Errorf("reduce = %v", g.Tensor("m").Shape)
	}
	if !g.Tensor("u").Shape.Equal(Shape{2, 32, 32, 32}) {
		t.Errorf("resize = %v", g.Tensor("u").Shape)
	}
}

func TestInferShapesGatherEmbedding(t *testing.T) {
	g := New("emb")
	g.AddTensor(&Tensor{Name: "ids", DType: Int64, Shape: Shape{4, 128}})
	g.AddTensor(&Tensor{Name: "table", DType: Float32, Shape: Shape{30522, 768}, Param: true})
	g.AddTensor(&Tensor{Name: "emb", DType: Float32})
	g.AddNode(&Node{Name: "g", OpType: "Gather", Inputs: []string{"table", "ids"}, Outputs: []string{"emb"}})
	g.Inputs = []string{"ids"}
	g.Outputs = []string{"emb"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("emb").Shape.Equal(Shape{4, 128, 768}) {
		t.Errorf("embedding out = %v", g.Tensor("emb").Shape)
	}
}

func TestInferShapesErrors(t *testing.T) {
	g := New("bad")
	g.AddTensor(&Tensor{Name: "a", DType: Float32, Shape: Shape{2, 3}})
	g.AddTensor(&Tensor{Name: "b", DType: Float32, Shape: Shape{4, 5}})
	g.AddTensor(&Tensor{Name: "y", DType: Float32})
	g.AddNode(&Node{Name: "mm", OpType: "MatMul", Inputs: []string{"a", "b"}, Outputs: []string{"y"}})
	if err := g.InferShapes(); err == nil {
		t.Error("MatMul dim mismatch should error")
	}

	g2 := New("unknown")
	g2.AddTensor(&Tensor{Name: "a", DType: Float32, Shape: Shape{1}})
	g2.AddTensor(&Tensor{Name: "y", DType: Float32})
	g2.AddNode(&Node{Name: "x", OpType: "FancyOp", Inputs: []string{"a"}, Outputs: []string{"y"}})
	if err := g2.InferShapes(); err == nil {
		t.Error("unknown op should error")
	}
}

func TestInferReshapeInvalid(t *testing.T) {
	g := New("rs")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{2, 6}})
	g.AddTensor(&Tensor{Name: "y", DType: Float32})
	g.AddNode(&Node{Name: "r", OpType: "Reshape", Inputs: []string{"x"}, Outputs: []string{"y"},
		Attrs: Attrs{IntsAttr("shape", 5, -1)}})
	if err := g.InferShapes(); err == nil {
		t.Error("Reshape with non-divisible -1 should error")
	}
}

func TestPoolDim(t *testing.T) {
	// 224, k=7, s=2, pad 3+3 -> 112
	if got := poolDim(224, 7, 2, 3, 3, 1, false); got != 112 {
		t.Errorf("poolDim = %d", got)
	}
	// ceil mode rounds up
	if got := poolDim(7, 3, 2, 0, 0, 1, true); got != 3 {
		t.Errorf("poolDim ceil = %d", got)
	}
	if got := poolDim(7, 3, 2, 0, 0, 1, false); got != 3 {
		t.Errorf("poolDim floor = %d", got)
	}
	// dilation widens the window
	if got := poolDim(32, 3, 1, 0, 0, 2, false); got != 28 {
		t.Errorf("poolDim dilated = %d", got)
	}
}

func TestReInferWithNewBatch(t *testing.T) {
	g := New("rebatch")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 3, 8, 8}})
	g.AddTensor(&Tensor{Name: "w", DType: Float32, Shape: Shape{4, 3, 3, 3}, Param: true})
	g.AddTensor(&Tensor{Name: "y", DType: Float32})
	g.AddNode(&Node{Name: "c", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: MakeAttrs(IntsAttr("pads", 1, 1, 1, 1), IntsAttr("kernel_shape", 3, 3))})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if g.Tensor("y").Shape[0] != 1 {
		t.Fatal("batch 1 expected")
	}
	g.Tensor("x").Shape[0] = 32
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if g.Tensor("y").Shape[0] != 32 {
		t.Errorf("re-inference batch = %d, want 32", g.Tensor("y").Shape[0])
	}
}

// TestCountArithmeticOverflows: MulCount and AddCount give the exact
// result while it fits in int64 and -1 once it overflows or a factor is
// negative, and -1 stays -1 through both; NumElements and Bytes count
// through them.
func TestCountArithmeticOverflows(t *testing.T) {
	const max = int64(^uint64(0) >> 1)
	for _, tc := range []struct{ a, b, mul, add int64 }{
		{0, max, 0, max},
		{3, 5, 15, 8},
		{1 << 31, 1 << 31, 1 << 62, 1 << 32},
		{3037000499, 3037000499, 9223372030926249001, 6074000998},
		{3037000500, 3037000500, -1, 6074001000},
		{1 << 62, 4, -1, 1<<62 + 4},
		{max, 1, max, -1},
		{-1, 0, -1, -1},
		{7, -1, -1, -1},
	} {
		if got := MulCount(tc.a, tc.b); got != tc.mul {
			t.Errorf("MulCount(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.mul)
		}
		if got := AddCount(tc.a, tc.b); got != tc.add {
			t.Errorf("AddCount(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.add)
		}
	}
	if n := (Shape{1, 1 << 62, 4}).NumElements(); n != -1 {
		t.Errorf("NumElements of [1 2^62 4] = %d, want -1", n)
	}
	wide := &Tensor{Name: "x", DType: Float32, Shape: Shape{1 << 31, 1 << 31}}
	if n, b := wide.Shape.NumElements(), wide.Bytes(); n != 1<<62 || b != -1 || !wide.overflows() {
		t.Errorf("[2^31 2^31] fp32: %d elements, %d bytes, overflows %v; want 2^62, -1, true", n, b, wide.overflows())
	}
	if small := (&Tensor{Name: "x", DType: Int8, Shape: wide.Shape}); small.overflows() {
		t.Errorf("[2^31 2^31] int8 (2^62 bytes) overflows")
	}
	g := New("tables")
	g.AddTensor(&Tensor{Name: "a", DType: Int8, Shape: Shape{1 << 62}, Param: true})
	if n := g.ParamCount(); n != 1<<62 {
		t.Errorf("ParamCount of one 2^62 table = %d, want 2^62", n)
	}
	g.AddTensor(&Tensor{Name: "b", DType: Int8, Shape: Shape{1 << 62}, Param: true})
	if n := g.ParamCount(); n != -1 {
		t.Errorf("ParamCount of two 2^62 tables = %d, want -1", n)
	}
}

// TestCountArithmeticMatchesBigInt holds MulCount, AddCount and
// NumElements's unchecked fast path to math/big on random operands of
// every bit length, negatives included.
func TestCountArithmeticMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	operand := func() int64 {
		v := rng.Int63() >> rng.Intn(64)
		if rng.Intn(8) == 0 {
			v = -v - 1
		}
		return v
	}
	limit := new(big.Int).SetInt64(int64(^uint64(0) >> 1))
	want := func(z *big.Int, a, b int64) int64 {
		if a < 0 || b < 0 || z.Cmp(limit) > 0 {
			return -1
		}
		return z.Int64()
	}
	for i := 0; i < 100000; i++ {
		a, b := operand(), operand()
		if got, w := MulCount(a, b), want(new(big.Int).Mul(big.NewInt(a), big.NewInt(b)), a, b); got != w {
			t.Fatalf("MulCount(%d, %d) = %d, want %d", a, b, got, w)
		}
		if got, w := AddCount(a, b), want(new(big.Int).Add(big.NewInt(a), big.NewInt(b)), a, b); got != w {
			t.Fatalf("AddCount(%d, %d) = %d, want %d", a, b, got, w)
		}
		s := make(Shape, 1+rng.Intn(6))
		for j := range s {
			s[j] = int(operand() >> rng.Intn(64))
		}
		if got, w := s.NumElements(), s.checkedCount(); got != w {
			t.Fatalf("NumElements(%v) = %d, want %d", s, got, w)
		}
	}
}
