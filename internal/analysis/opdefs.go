package analysis

import (
	"fmt"

	"proof/internal/graph"
)

// OpDef is an operator define (§3.2.1): it knows how to predict the FLOP
// and memory accesses of one operator type from the node's attributes and
// tensor shapes.
type OpDef interface {
	// Type returns the ONNX operator type this define handles.
	Type() string
	// Cost predicts the cost of node n inside graph g. Shapes must
	// already be inferred.
	Cost(n *graph.Node, g *graph.Graph) (Cost, error)
}

// opRegistry maps operator types to their defines. Populated by init().
var opRegistry = map[string]OpDef{}

// RegisterOp installs an operator define, replacing any previous define
// for the same type. It is exported so tests and future backends can add
// custom operator rules.
func RegisterOp(d OpDef) { opRegistry[d.Type()] = d }

// LookupOp returns the define for an operator type.
func LookupOp(opType string) (OpDef, bool) {
	d, ok := opRegistry[opType]
	return d, ok
}

// NodeCost predicts the cost of a single node using the registered
// operator defines. The defines multiply and sum through
// graph.MulCount and graph.AddCount, so a figure that overflows int64
// reads negative; NodeCost answers it with graph.OverflowDefect.
func NodeCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	d, ok := opRegistry[n.OpType]
	if !ok {
		return Cost{}, fmt.Errorf("analysis: no operator define for %q (node %q)", n.OpType, n.Name)
	}
	c, err := d.Cost(n, g)
	if err == nil && c.overflowed() {
		return Cost{}, g.OverflowDefect(n.Name, fmt.Sprintf("the cost of node %q", n.Name))
	}
	return c, err
}

// opFunc adapts a function to the OpDef interface.
type opFunc struct {
	typ string
	fn  func(n *graph.Node, g *graph.Graph) (Cost, error)
}

func (o opFunc) Type() string { return o.typ }
func (o opFunc) Cost(n *graph.Node, g *graph.Graph) (Cost, error) {
	return o.fn(n, g)
}

func opRule(typ string, fn func(n *graph.Node, g *graph.Graph) (Cost, error)) {
	RegisterOp(opFunc{typ: typ, fn: fn})
}

// inOf fetches node n's i-th input tensor and outOf its i-th output
// tensor, by slot on an admitted graph; both error on an unregistered
// tensor or an unknown shape.
func inOf(g *graph.Graph, n *graph.Node, i int) (*graph.Tensor, error) {
	return shaped(g.In(n, i), n.Inputs[i])
}

func outOf(g *graph.Graph, n *graph.Node, i int) (*graph.Tensor, error) {
	return shaped(g.Out(n, i), n.Outputs[i])
}

// shaped returns t, the tensor named name, or an error when it is not
// registered or has no shape yet.
func shaped(t *graph.Tensor, name string) (*graph.Tensor, error) {
	if t == nil {
		return nil, fmt.Errorf("analysis: tensor %q not registered", name)
	}
	if t.Shape == nil {
		return nil, fmt.Errorf("analysis: tensor %q has unknown shape (run shape inference first)", name)
	}
	return t, nil
}

// defaultMemory implements Eq. 1: read all (non-parameter) inputs and all
// parameters, write all outputs. Shapes already carry the batch size, so
// the batch multiplication of Eq. 1 is implicit.
func defaultMemory(n *graph.Node, g *graph.Graph) (read, write, param int64, err error) {
	for i := range n.Inputs {
		t, terr := inOf(g, n, i)
		if terr != nil {
			return 0, 0, 0, terr
		}
		read = graph.AddCount(read, t.Bytes())
		if t.Param {
			param = graph.AddCount(param, t.Bytes())
		}
	}
	for i := range n.Outputs {
		t, terr := outOf(g, n, i)
		if terr != nil {
			return 0, 0, 0, terr
		}
		write = graph.AddCount(write, t.Bytes())
	}
	return read, write, param, nil
}

// elementwiseCost is the generic rule for unary/binary element ops: FLOP
// is the per-element weight times output elements; memory follows Eq. 1.
func elementwiseCost(weight int64) func(n *graph.Node, g *graph.Graph) (Cost, error) {
	return func(n *graph.Node, g *graph.Graph) (Cost, error) {
		out, err := outOf(g, n, 0)
		if err != nil {
			return Cost{}, err
		}
		r, w, p, err := defaultMemory(n, g)
		if err != nil {
			return Cost{}, err
		}
		return Cost{
			FLOP:       graph.MulCount(weight, out.Shape.NumElements()),
			ReadBytes:  r,
			WriteBytes: w,
			ParamBytes: p,
		}, nil
	}
}

func copyCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

func zeroCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	return Cost{}, nil
}

func init() {
	for op, w := range basicOpFLOP {
		opRule(op, elementwiseCost(w))
	}
	for op := range zeroCopyOps {
		opRule(op, zeroCost)
	}
	for op := range copyOps {
		opRule(op, copyCost)
	}
	// Shape-metadata ops already covered by zeroCopyOps; data-movement
	// ops by copyOps. The rest have dedicated rules below.
	opRule("Conv", convCost)
	opRule("ConvTranspose", convTransposeCost)
	opRule("MatMul", matMulCost)
	opRule("Gemm", gemmCost)
	opRule("BatchNormalization", normCost(2))
	opRule("InstanceNormalization", normCost(8))
	opRule("GroupNormalization", normCost(8))
	opRule("LayerNormalization", normCost(8))
	opRule("Softmax", softmaxCost)
	opRule("LogSoftmax", softmaxCost)
	opRule("MaxPool", poolCost)
	opRule("AveragePool", poolCost)
	opRule("GlobalAveragePool", globalPoolCost)
	opRule("GlobalMaxPool", globalPoolCost)
	opRule("ReduceMean", reduceCost)
	opRule("ReduceSum", reduceCost)
	opRule("ReduceMax", reduceCost)
	opRule("ReduceMin", reduceCost)
	opRule("ReduceL2", reduceCost)
	opRule("Gather", gatherCost)
	opRule("QuantizeLinear", elementwiseCost(2))
	opRule("DequantizeLinear", elementwiseCost(2))
	opRule("Einsum", einsumCost)
	opRule("ReduceProd", reduceCost)
	opRule("ArgMax", reduceCost)
	opRule("ArgMin", reduceCost)
	opRule("TopK", topKCost)
	opRule("Not", elementwiseCost(1))
	opRule("Sum", sumCost)
	opRule("Mean", sumCost)
}

// convCost: MACs = outElems * (Cin/group) * kh * kw; plus one add per
// output element when a bias input is present. The memory rule applies
// the stride special case from §3.2.1: with stride larger than the
// kernel, part of the input tensor is never loaded.
func convCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	x, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	w, err := inOf(g, n, 1)
	if err != nil {
		return Cost{}, err
	}
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	group := int64(n.Attrs.Int("group", 1))
	cinPerGroup := int64(w.Shape[1])
	kh, kw := int64(w.Shape[2]), int64(w.Shape[3])
	outElems := out.Shape.NumElements()
	macs := mulCounts(outElems, cinPerGroup, kh, kw)
	flop := graph.MulCount(2, macs)
	if len(n.Inputs) >= 3 { // bias
		flop = graph.AddCount(flop, outElems)
	}
	_ = group

	// Memory: stride-aware input read.
	strides := n.Attrs.Ints("strides", []int{1, 1})
	readElems := convInputReadElems(x.Shape, out.Shape, int(kh), int(kw), strides)
	read := graph.MulCount(readElems, int64(x.DType.Size()))
	var param int64
	for i := 1; i < len(n.Inputs); i++ {
		t, terr := inOf(g, n, i)
		if terr != nil {
			return Cost{}, terr
		}
		read = graph.AddCount(read, t.Bytes())
		if t.Param {
			param = graph.AddCount(param, t.Bytes())
		}
	}
	return Cost{
		FLOP:       flop,
		MACs:       macs,
		ReadBytes:  read,
		WriteBytes: out.Bytes(),
		ParamBytes: param,
	}, nil
}

// convInputReadElems counts the input elements actually touched by the
// convolution windows. For stride <= kernel the windows cover the whole
// (padded) span, so the full input is read; for stride > kernel, gaps of
// (stride - kernel) columns/rows are skipped entirely.
func convInputReadElems(in, out graph.Shape, kh, kw int, strides []int) int64 {
	touched := func(inDim, outDim, k, stride int) int64 {
		span := (outDim-1)*stride + k // window span over the padded input
		rows := outDim * k            // rows touched when windows don't overlap
		t := span
		if rows < t {
			t = rows
		}
		if inDim < t {
			t = inDim
		}
		return int64(t)
	}
	th := touched(in[2], out[2], kh, strides[0])
	tw := touched(in[3], out[3], kw, strides[1])
	return mulCounts(int64(in[0]), int64(in[1]), th, tw)
}

// mulCounts is the product of non-negative factors through
// graph.MulCount: -1 when it overflows int64.
func mulCounts(factors ...int64) int64 {
	p := int64(1)
	for _, f := range factors {
		p = graph.MulCount(p, f)
	}
	return p
}

func convTransposeCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	x, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	w, err := inOf(g, n, 1)
	if err != nil {
		return Cost{}, err
	}
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	kh, kw := int64(w.Shape[2]), int64(w.Shape[3])
	coutPerGroup := int64(w.Shape[1])
	macs := mulCounts(x.Shape.NumElements(), coutPerGroup, kh, kw)
	flop := graph.MulCount(2, macs)
	if len(n.Inputs) >= 3 {
		flop = graph.AddCount(flop, out.Shape.NumElements())
	}
	r, wr, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: flop, MACs: macs, ReadBytes: r, WriteBytes: wr, ParamBytes: p}, nil
}

func matMulCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	a, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	k := int64(a.Shape[a.Shape.Rank()-1])
	macs := graph.MulCount(out.Shape.NumElements(), k)
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: graph.MulCount(2, macs), MACs: macs, ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

func gemmCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	a, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	k := int64(a.Shape[1])
	if n.Attrs.Int("transA", 0) == 1 {
		k = int64(a.Shape[0])
	}
	macs := graph.MulCount(out.Shape.NumElements(), k)
	flop := graph.MulCount(2, macs)
	if len(n.Inputs) >= 3 {
		flop = graph.AddCount(flop, out.Shape.NumElements())
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: flop, MACs: macs, ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

// normCost builds the rule for normalization layers with the given
// per-element FLOP weight (inference-mode BatchNorm is a fused
// scale-and-shift = 2; the statistics-computing norms cost more).
func normCost(weight int64) func(n *graph.Node, g *graph.Graph) (Cost, error) {
	return elementwiseCost(weight)
}

func softmaxCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	// max-subtract (2) + exp (4) + sum (1) + div (4) per element.
	return elementwiseCost(11)(n, g)
}

func poolCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	k := n.Attrs.Ints("kernel_shape", []int{1, 1})
	window := int64(1)
	for _, d := range k {
		window = graph.MulCount(window, int64(d))
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: graph.MulCount(out.Shape.NumElements(), window), ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

func globalPoolCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	x, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: x.Shape.NumElements(), ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

func reduceCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	x, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: x.Shape.NumElements(), ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

// einsumCost treats the contraction as dense math: MACs are the product
// of every distinct index dimension.
func einsumCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	a, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	b, err := inOf(g, n, 1)
	if err != nil {
		return Cost{}, err
	}
	macs, err := graph.EinsumMACs(n.Attrs.String("equation", ""), a.Shape, b.Shape)
	if err != nil {
		return Cost{}, err
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: graph.MulCount(2, macs), MACs: macs, ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

// topKCost charges ~2 comparisons per input element (heap selection).
func topKCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	x, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	return Cost{FLOP: graph.MulCount(2, x.Shape.NumElements()), ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

// sumCost charges one add per element per extra operand.
func sumCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	r, w, p, err := defaultMemory(n, g)
	if err != nil {
		return Cost{}, err
	}
	extra := int64(len(n.Inputs) - 1)
	if extra < 1 {
		extra = 1
	}
	return Cost{FLOP: graph.MulCount(extra, out.Shape.NumElements()), ReadBytes: r, WriteBytes: w, ParamBytes: p}, nil
}

// gatherCost reads only the gathered rows, not the whole table — reading
// the full embedding table of an NLP model would wildly overestimate
// DRAM traffic.
func gatherCost(n *graph.Node, g *graph.Graph) (Cost, error) {
	idx, err := inOf(g, n, 1)
	if err != nil {
		return Cost{}, err
	}
	out, err := outOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	data, err := inOf(g, n, 0)
	if err != nil {
		return Cost{}, err
	}
	read := graph.AddCount(out.Bytes(), idx.Bytes())
	var param int64
	if data.Param {
		param = out.Bytes() // gathered parameter rows
	}
	return Cost{ReadBytes: read, WriteBytes: out.Bytes(), ParamBytes: param}, nil
}
