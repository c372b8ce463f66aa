package analysis

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"proof/internal/graph"
)

// convBlock builds x -> Conv -> c -> BatchNormalization -> b -> Relu -> y
// with a 3x3 conv, 16->32 channels, on an 8x8 input.
func convBlock(t *testing.T, batch int) *graph.Graph {
	t.Helper()
	g := graph.New("cb")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{batch, 16, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{32, 16, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "bias", DType: graph.Float32, Shape: graph.Shape{32}, Param: true})
	for _, name := range []string{"c", "b", "y"} {
		g.AddTensor(&graph.Tensor{Name: name, DType: graph.Float32})
	}
	for _, name := range []string{"scale", "shift", "mean", "variance"} {
		g.AddTensor(&graph.Tensor{Name: name, DType: graph.Float32, Shape: graph.Shape{32}, Param: true})
	}
	g.AddNode(&graph.Node{Name: "conv", OpType: "Conv", Inputs: []string{"x", "w", "bias"}, Outputs: []string{"c"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))})
	g.AddNode(&graph.Node{Name: "bn", OpType: "BatchNormalization",
		Inputs: []string{"c", "scale", "shift", "mean", "variance"}, Outputs: []string{"b"}})
	g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"b"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	return g
}

func TestConvCost(t *testing.T) {
	g := convBlock(t, 1)
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := r.Cost(r.Graph.Node("conv"))
	if !ok {
		t.Fatal("no conv cost")
	}
	// MACs = 1*32*8*8 outputs * 16*3*3 = 2048 * 144 = 294912.
	if c.MACs != 294912 {
		t.Errorf("conv MACs = %d, want 294912", c.MACs)
	}
	wantFLOP := int64(2*294912 + 2048) // + bias adds
	if c.FLOP != wantFLOP {
		t.Errorf("conv FLOP = %d, want %d", c.FLOP, wantFLOP)
	}
	// Memory: input 16*8*8*4 + weights (32*16*3*3+32+...)*4 + output 32*8*8*4.
	wantRead := int64(16*8*8*4) + int64((32*16*3*3+32)*4)
	if c.ReadBytes != wantRead {
		t.Errorf("conv read = %d, want %d", c.ReadBytes, wantRead)
	}
	if c.WriteBytes != 32*8*8*4 {
		t.Errorf("conv write = %d", c.WriteBytes)
	}
}

func TestConvStrideRule(t *testing.T) {
	// Kernel 1x1 with stride 2: only 1/4 of the input is touched.
	g := graph.New("s")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 16, 16}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{8, 8, 1, 1}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "c", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("strides", 2, 2), graph.IntsAttr("kernel_shape", 1, 1))})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := r.Cost(r.Graph.Node("c"))
	// Touched input: 8 channels * 8*8 positions (not 16*16).
	wantInputRead := int64(8*8*8) * 4
	wantRead := wantInputRead + int64(8*8*1*1*4)
	if c.ReadBytes != wantRead {
		t.Errorf("strided conv read = %d, want %d", c.ReadBytes, wantRead)
	}
}

func TestZeroCopyAndCopyOps(t *testing.T) {
	g := graph.New("z")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{2, 4, 4}})
	g.AddTensor(&graph.Tensor{Name: "r", DType: graph.Float16})
	g.AddTensor(&graph.Tensor{Name: "tr", DType: graph.Float16})
	g.AddNode(&graph.Node{Name: "reshape", OpType: "Reshape", Inputs: []string{"x"}, Outputs: []string{"r"},
		Attrs: graph.Attrs{graph.IntsAttr("shape", 2, 16)}})
	g.AddNode(&graph.Node{Name: "transp", OpType: "Transpose", Inputs: []string{"r"}, Outputs: []string{"tr"},
		Attrs: graph.Attrs{graph.IntsAttr("perm", 1, 0)}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"tr"}
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := r.Cost(r.Graph.Node("reshape"))
	if rc.FLOP != 0 || rc.MemoryBytes() != 0 {
		t.Errorf("Reshape should be free, got %+v", rc)
	}
	tc, _ := r.Cost(r.Graph.Node("transp"))
	if tc.FLOP != 0 {
		t.Errorf("Transpose FLOP = %d", tc.FLOP)
	}
	want := int64(2*16*2) * 2 // read + write, fp16
	if tc.MemoryBytes() != want {
		t.Errorf("Transpose memory = %d, want %d", tc.MemoryBytes(), want)
	}
}

func TestGatherReadsOnlyRows(t *testing.T) {
	g := graph.New("emb")
	g.AddTensor(&graph.Tensor{Name: "ids", DType: graph.Int64, Shape: graph.Shape{1, 8}})
	g.AddTensor(&graph.Tensor{Name: "table", DType: graph.Float32, Shape: graph.Shape{1000, 16}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "e", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "g", OpType: "Gather", Inputs: []string{"table", "ids"}, Outputs: []string{"e"}})
	g.Inputs = []string{"ids"}
	g.Outputs = []string{"e"}
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := r.Cost(r.Graph.Node("g"))
	rows := int64(8 * 16 * 4)
	if c.ReadBytes != rows+8*8 {
		t.Errorf("gather read = %d, want %d (rows) + 64 (indices)", c.ReadBytes, rows)
	}
	if c.ReadBytes >= 1000*16*4 {
		t.Error("gather must not read the whole table")
	}
}

func TestMatMulAndGemmCost(t *testing.T) {
	g := graph.New("mm")
	g.AddTensor(&graph.Tensor{Name: "a", DType: graph.Float16, Shape: graph.Shape{2, 8, 32, 64}})
	g.AddTensor(&graph.Tensor{Name: "b", DType: graph.Float16, Shape: graph.Shape{2, 8, 64, 16}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float16})
	g.AddNode(&graph.Node{Name: "mm", OpType: "MatMul", Inputs: []string{"a", "b"}, Outputs: []string{"y"}})
	g.Inputs = []string{"a", "b"}
	g.Outputs = []string{"y"}
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := r.Cost(r.Graph.Node("mm"))
	wantMACs := int64(2 * 8 * 32 * 16 * 64)
	if c.MACs != wantMACs || c.FLOP != 2*wantMACs {
		t.Errorf("matmul MACs = %d FLOP = %d, want %d/%d", c.MACs, c.FLOP, wantMACs, 2*wantMACs)
	}
}

func TestTotalCostScalesWithBatch(t *testing.T) {
	g1 := convBlock(t, 1)
	r1, err := NewRep(g1)
	if err != nil {
		t.Fatal(err)
	}
	g4 := convBlock(t, 4)
	r4, err := NewRep(g4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.TotalCost().FLOP != 4*r1.TotalCost().FLOP {
		t.Errorf("FLOP should scale linearly with batch: %d vs %d", r4.TotalCost().FLOP, r1.TotalCost().FLOP)
	}
	// Memory grows sub-linearly (params counted once).
	if r4.TotalCost().MemoryBytes() >= 4*r1.TotalCost().MemoryBytes() {
		t.Error("memory should grow sub-linearly with batch due to params")
	}
}

func TestNewRepWithBatch(t *testing.T) {
	g := convBlock(t, 1)
	r, err := NewRepWithBatch(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchSize() != 8 {
		t.Errorf("BatchSize = %d", r.BatchSize())
	}
	if _, err := NewRepWithBatch(g, 0); err == nil {
		t.Error("batch 0 should be rejected")
	}
}

func TestUnknownOpCostError(t *testing.T) {
	g := graph.New("u")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{1}})
	g.AddNode(&graph.Node{Name: "n", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}})
	n := g.Nodes[0]
	n.OpType = "Mystery"
	if _, err := NodeCost(n, g); err == nil {
		t.Error("unknown op type must error")
	}
}

func TestCostAddAndAI(t *testing.T) {
	a := Cost{FLOP: 100, MACs: 50, ReadBytes: 10, WriteBytes: 10, ParamBytes: 4}
	b := Cost{FLOP: 1, MACs: 2, ReadBytes: 3, WriteBytes: 4, ParamBytes: 5}
	s := a.Add(b)
	if s.FLOP != 101 || s.MACs != 52 || s.ReadBytes != 13 || s.WriteBytes != 14 || s.ParamBytes != 9 {
		t.Errorf("Add = %+v", s)
	}
	if ai := a.ArithmeticIntensity(); ai != 5 {
		t.Errorf("AI = %v", ai)
	}
	if (Cost{}).ArithmeticIntensity() != 0 {
		t.Error("AI of empty cost should be 0")
	}
}

func TestCostAddProperties(t *testing.T) {
	f := func(f1, f2, r1, r2 uint32) bool {
		a := Cost{FLOP: int64(f1), ReadBytes: int64(r1)}
		b := Cost{FLOP: int64(f2), ReadBytes: int64(r2)}
		ab, ba := a.Add(b), b.Add(a)
		return ab == ba && ab.FLOP == int64(f1)+int64(f2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fourOpChain: x -> Conv(c1) -> Relu(r1) -> Conv(c2) -> Relu(r2) -> y
func fourOpChain(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w1", DType: graph.Float32, Shape: graph.Shape{8, 8, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "w2", DType: graph.Float32, Shape: graph.Shape{8, 8, 3, 3}, Param: true})
	for _, n := range []string{"t1", "t2", "t3", "y"} {
		g.AddTensor(&graph.Tensor{Name: n, DType: graph.Float32})
	}
	g.AddNode(&graph.Node{Name: "c1", OpType: "Conv", Inputs: []string{"x", "w1"}, Outputs: []string{"t1"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))})
	g.AddNode(&graph.Node{Name: "r1", OpType: "Relu", Inputs: []string{"t1"}, Outputs: []string{"t2"}})
	g.AddNode(&graph.Node{Name: "c2", OpType: "Conv", Inputs: []string{"t2", "w2"}, Outputs: []string{"t3"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))})
	g.AddNode(&graph.Node{Name: "r2", OpType: "Relu", Inputs: []string{"t3"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	return g
}

func TestGetSubgraphOpsByIO(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	nodes, err := o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "c1" || nodes[1].Name != "r1" {
		t.Errorf("subgraph = %v", nodes)
	}
	// Whole graph.
	nodes, err = o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"y"})
	if err != nil || len(nodes) != 4 {
		t.Errorf("full subgraph = %v, %v", nodes, err)
	}
	// Missing input boundary -> error.
	if _, err := o.GetSubgraphOpsByIO(nil, nil, []string{"t2"}); err == nil {
		t.Error("subgraph reaching undeclared graph input should error")
	}
}

func TestTensorAliasResolution(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	o.SetTensorAlias("t2_r", "t2")
	nodes, err := o.GetSubgraphOpsByIO(nil, []string{"t2_r"}, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "c2" {
		t.Errorf("aliased subgraph = %v", nodes)
	}
	if o.ResolveTensor("t2_r") != "t2" || o.ResolveTensor("t2") != "t2" {
		t.Error("ResolveTensor")
	}
}

func TestSetFusedOpAndLayers(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	nodes, err := o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := setFusedOp(o, "fused_conv_relu", nodes)
	if err != nil {
		t.Fatal(err)
	}
	io := o.AppendBoundary(nil, f)
	if f.NumInputs != 1 || f.NumOutputs != 1 || len(io) != 2 || io[0] != "x" {
		t.Errorf("fused inputs = %v of %v", io[:f.NumInputs], io)
	}
	if io[1] != "t2" {
		t.Errorf("fused outputs = %v of %v", io[f.NumInputs:], io)
	}
	layers := o.Layers()
	if len(layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(layers))
	}
	if layers[0].Name() != "fused_conv_relu" {
		t.Errorf("layer0 = %s", layers[0].Name())
	}
	// Double fusion must fail.
	if _, err := setFusedOp(o, "again", nodes); err == nil {
		t.Error("re-fusing a node should error")
	}
	// Empty fusion must fail.
	if _, err := setFusedOp(o, "empty", nil); err == nil {
		t.Error("empty fusion should error")
	}
}

// TestSetFusedOpNodeOrder: a node list given in topological order
// becomes the fused operator's list as is, capped; a list out of that
// order, or one that repeats a node, is refused and fuses nothing.
func TestSetFusedOpNodeOrder(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := NewOptimizedRep(r).GetSubgraphOpsByIO(nil, []string{"x"}, []string{"t2"})
	if err != nil || len(nodes) != 2 {
		t.Fatalf("GetSubgraphOpsByIO = %v, %v", nodes, err)
	}
	f, err := setFusedOp(NewOptimizedRep(r), "sorted", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if &f.Nodes[0] != &nodes[0] || cap(f.Nodes) != len(nodes) {
		t.Error("a list in topological order was copied, or kept uncapped")
	}
	for _, bad := range [][]*graph.Node{
		{nodes[1], nodes[0]},
		{nodes[0], nodes[0]},
	} {
		o := NewOptimizedRep(r)
		if _, err := setFusedOp(o, "bad", bad); err == nil {
			t.Errorf("SetFusedOp(%v) succeeded; want an order error", bad)
		}
		if _, err := setFusedOp(o, "after", nodes); err != nil {
			t.Errorf("a refused list left nodes fused: %v", err)
		}
	}
}

func TestFusedCostElidesIntermediates(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	nodes, _ := o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"t2"})
	f, err := setFusedOp(o, "f", nodes)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := o.LayerCost(&Layer{Fused: f})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := o.NaiveFusedCost(f)
	if err != nil {
		t.Fatal(err)
	}
	// FLOP must be conserved.
	if fused.FLOP != naive.FLOP {
		t.Errorf("fused FLOP %d != naive %d", fused.FLOP, naive.FLOP)
	}
	// Memory must shrink: intermediate t1 no longer hits DRAM.
	if fused.MemoryBytes() >= naive.MemoryBytes() {
		t.Errorf("fused memory %d should be < naive %d", fused.MemoryBytes(), naive.MemoryBytes())
	}
	// Expected: read x + params, write t2.
	actBytes := int64(8*8*8) * 4
	wantMem := actBytes + fused.ParamBytes + actBytes
	if fused.MemoryBytes() != wantMem {
		t.Errorf("fused memory = %d, want %d", fused.MemoryBytes(), wantMem)
	}
}

func TestLayersTotalFLOPConserved(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	nodes, _ := o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"t2"})
	if _, err := setFusedOp(o, "f", nodes); err != nil {
		t.Fatal(err)
	}
	var total Cost
	for _, l := range o.Layers() {
		c, err := o.LayerCost(l)
		if err != nil {
			t.Fatal(err)
		}
		total.FLOP += c.FLOP
	}
	if total.FLOP != r.TotalCost().FLOP {
		t.Errorf("layer FLOP sum %d != model total %d", total.FLOP, r.TotalCost().FLOP)
	}
}

func TestLayerHelpers(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	nodes, _ := o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"t2"})
	f, _ := setFusedOp(o, "f", nodes)
	l := &Layer{Fused: f}
	types := l.AppendOpTypes(nil)
	if len(types) != 2 {
		t.Errorf("AppendOpTypes = %v", types)
	}
	if len(l.OriginalNodes()) != 2 {
		t.Error("OriginalNodes")
	}
	if layers := o.Layers(); len(layers) != 3 || layers[0].Fused != f || layers[1].Node == nil || layers[1].Node.Name != "c2" {
		t.Errorf("Layers = %v, want f, c2, r2", layers)
	}
	if _, err := setFusedOp(o, "again", nodes[:1]); err == nil {
		t.Error("a node f owns must not fuse again")
	}
}

// TestPerRunLookupsZeroAlloc: the lookups every cold profile repeats
// per node and tensor — a node's position, its cost, its input and
// output tensors, its input's producer and its output's consumers (read
// by slot), and a tensor name through the alias table (absent, chained
// and looping; a loop ends) — allocate nothing.
func TestPerRunLookupsZeroAlloc(t *testing.T) {
	r, err := NewRep(fourOpChain(t))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	o.SetTensorAlias("t2_r", "t2")
	o.SetTensorAlias("t2_rr", "t2_r")
	o.SetTensorAlias("loop_a", "loop_b")
	o.SetTensorAlias("loop_b", "loop_a")
	o.SetTensorAlias("into_loop", "loop_b")
	c2 := r.Graph.Node("c2")
	for name, want := range map[string]string{"t2": "t2", "t2_rr": "t2"} {
		if got := o.ResolveTensor(name); got != want {
			t.Errorf("ResolveTensor(%q) = %q, want %q", name, got, want)
		}
	}
	g := r.Graph
	if c, ok := r.Cost(c2); !ok || c.FLOP == 0 || g.Pos(c2) != 2 {
		t.Fatalf("c2: cost %v %v, position %d", c, ok, g.Pos(c2))
	}
	if g.In(c2, 0) != g.Tensor(c2.Inputs[0]) || g.Out(c2, 0) != g.Tensor(c2.Outputs[0]) ||
		g.InProducer(c2, 0) != g.Producer(c2.Inputs[0]) ||
		!slices.Equal(g.OutConsumers(c2, 0), g.Consumers(c2.Outputs[0])) {
		t.Fatal("c2: slot and name lookups disagree")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = g.Pos(c2)
		_, _ = r.Cost(c2)
		_, _ = g.In(c2, 0), g.Out(c2, 0)
		_, _ = g.InProducer(c2, 0), g.OutConsumers(c2, 0)
		_ = o.ResolveTensor("t2")
		_ = o.ResolveTensor("t2_rr")
		_ = o.ResolveTensor("into_loop")
	})
	if allocs != 0 {
		t.Errorf("per-run lookups: %.0f allocs, want 0", allocs)
	}
}

// TestGetSubgraphOpsByIOWideLayer: a layer declaring more inputs than
// the search keeps in its stack array (a 12-way Concat) stops at every
// declared input, and without them walks back to the graph input.
func TestGetSubgraphOpsByIOWideLayer(t *testing.T) {
	g := graph.New("wide")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 4}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	var outs []string
	for i := 0; i < 12; i++ {
		r := fmt.Sprintf("r%d", i)
		g.AddTensor(&graph.Tensor{Name: r, DType: graph.Float32})
		g.AddNode(&graph.Node{Name: "relu" + r, OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{r}})
		outs = append(outs, r)
	}
	g.AddNode(&graph.Node{Name: "cat", OpType: "Concat", Inputs: outs, Outputs: []string{"y"},
		Attrs: graph.Attrs{graph.IntAttr("axis", 1)}})
	g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
	r, err := NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizedRep(r)
	nodes, err := o.GetSubgraphOpsByIO(nil, outs, []string{"y"})
	if err != nil || len(nodes) != 1 || nodes[0].Name != "cat" {
		t.Fatalf("declared relu outputs: got %v, %v; want [cat]", nodes, err)
	}
	nodes, err = o.GetSubgraphOpsByIO(nil, []string{"x"}, []string{"y"})
	if err != nil || len(nodes) != 13 || nodes[12].Name != "cat" {
		t.Fatalf("declared graph input: got %d nodes, %v; want the 12 relus and cat", len(nodes), err)
	}
}

// setFusedOp fuses nodes into a fused operator of its own.
func setFusedOp(o *OptimizedRep, name string, nodes []*graph.Node) (*FusedOp, error) {
	f := new(FusedOp)
	if err := o.SetFusedOp(f, name, nodes); err != nil {
		return nil, err
	}
	return f, nil
}
