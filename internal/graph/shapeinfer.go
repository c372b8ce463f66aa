package graph

import (
	"fmt"
)

// InferShapes runs ONNX-style shape (and partial value) inference over the
// graph. Graph inputs and parameter tensors must already carry shapes;
// every other tensor's shape and data type is derived in topological
// order. Small constant integer tensors (Shape results, Gather indices,
// shape-concat chains) have their *values* propagated so that
// tensor-driven Reshape/Expand work like real ONNX exports.
//
// InferShapes may be re-run after changing the graph input shapes (e.g.
// a different batch size); it overwrites previously inferred shapes. An
// admitted graph and its views are walked in the admitted order.
//
// A node whose shapes do not compose, and a graph input or inferred
// tensor whose size overflows int64, is a defect of the graph at these
// input shapes: the error is a *ValidationError with code
// ErrShapeInference.
func (g *Graph) InferShapes() error {
	_, err := g.infer()
	return err
}

// KnownValues runs InferShapes and returns the constant int values that
// pass propagated, by tensor name: the int data the graph carries and
// every value computed from it or from tensor shapes (Constant, Shape,
// Gather, Concat, Slice, integer arithmetic, ...). The caller owns the
// map; the values may alias tensors' IntData and one another.
func (g *Graph) KnownValues() (map[string][]int64, error) {
	ctx, err := g.infer()
	if err != nil {
		return nil, err
	}
	if ctx.valAt == nil {
		return ctx.byName, nil
	}
	vals := make(map[string][]int64, len(ctx.vals))
	for s, k := range ctx.valAt {
		if k != 0 {
			vals[g.adm.tensors[s].Name] = ctx.vals[k-1]
		}
	}
	return vals, nil
}

// infer is InferShapes, returning the pass that ran.
func (g *Graph) infer() (*inferCtx, error) {
	order, ok := g.AdmittedOrder()
	if !ok {
		var err error
		if order, err = g.TopoSort(); err != nil {
			return nil, err
		}
	}
	ctx := newInferCtx(g, order)
	// Seed known values from constant parameter tensors.
	if ctx.valAt != nil {
		for s := range ctx.valAt {
			if t := g.tensorAt(int32(s)); t.IntData != nil {
				ctx.setVal(int32(s), t.IntData)
			}
		}
	} else {
		g.eachTensor(func(_ string, t *Tensor) {
			if t.IntData != nil {
				ctx.byName[t.Name] = t.IntData
			}
		})
	}
	for _, in := range g.Inputs {
		if t := g.Tensor(in); t != nil && t.overflows() {
			return nil, g.OverflowDefect("", fmt.Sprintf("the size of graph input %q of shape %v", in, t.Shape))
		}
	}
	for _, n := range order {
		ctx.scratch = ctx.scratch[:0]
		if err := ctx.inferNode(n); err != nil {
			return nil, &ValidationError{
				Code: ErrShapeInference, Graph: g.Name, Node: n.Name,
				Detail: fmt.Sprintf("shape inference at node %q (%s): %v", n.Name, n.OpType, err),
			}
		}
		for i := range n.Outputs {
			if t := g.Out(n, i); t != nil && t.overflows() {
				return nil, g.OverflowDefect(n.Name, fmt.Sprintf("the size of node %q's output %q of shape %v", n.Name, n.Outputs[i], t.Shape))
			}
		}
	}
	return ctx, nil
}

// inferCtx carries one inference pass and the constant int values it
// propagates. On an admitted graph or view, whose every node reads its
// tensors by slot, the few known values sit in vals, and valAt maps
// each slot to one more than its value's index there (0: unknown); a
// raw graph keys them by tensor name in byName.
//
// Every shape the pass writes is carved from dims, one run-wide array
// sized by the ranks the outputs hold when the pass starts: a view
// holds its admitted graph's, and rebatching changes dimensions, not
// ranks, so a view's pass allocates its shapes once. A pass that meets
// unknown or larger ranks grows dims, at least doubling it. Every value
// the pass computes is carved from ints the same way, sized by the
// shape-vector outputs of the ops that compute one (valueOps), and vals
// by every shape-vector output and every tensor holding int data; a
// value another op passes on (Slice, Squeeze, Cast, ...) shares its
// input's. A node's transient integer lists, such as a Reshape target
// read from a value, sit in scratch, which the next node reuses: no
// value or shape keeps them.
type inferCtx struct {
	g       *Graph
	valAt   []int32
	vals    [][]int64
	byName  map[string][]int64
	dims    []int
	ints    []int64
	scratch []int
}

// valueOps compute a value of their own when their inputs' values are
// known: elementwise integer arithmetic (elementwiseBinary) and these.
var valueOps = map[string]bool{"Constant": true, "Shape": true, "Concat": true, "Gather": true}

// maxShapeVector bounds the outputs newInferCtx sizes ints and vals
// for: a value vector lists at most one int per dimension, or a few
// shape vectors concatenated. A longer value grows ints.
const maxShapeVector = 16

func newInferCtx(g *Graph, order []*Node) *inferCtx {
	c := &inferCtx{g: g}
	if g.adm != nil {
		c.valAt = make([]int32, len(g.adm.tensors))
	} else {
		c.byName = map[string][]int64{}
	}
	ranks, ints, vals := 0, 0, 0
	for _, n := range order {
		computes := valueOps[n.OpType] || elementwiseBinary[n.OpType]
		for i := range n.Outputs {
			t := g.Out(n, i)
			if t == nil {
				continue
			}
			ranks += len(t.Shape)
			if t.DType == Int64 && len(t.Shape) <= 1 && t.Shape != nil && t.Shape.NumElements() <= maxShapeVector {
				vals++
				if computes {
					ints += int(t.Shape.NumElements())
				}
			}
		}
	}
	if c.valAt != nil {
		for _, t := range g.adm.tensors {
			if t.IntData != nil {
				vals++
			}
		}
		c.vals = make([][]int64, 0, vals)
	}
	c.dims = make([]int, 0, ranks)
	c.ints = make([]int64, 0, ints)
	return c
}

// shape carves a rank-r shape from the pass's dims, capped so an append
// to it cannot reach the next shape's dimensions. A rank-0 shape is a
// known scalar shape, never nil.
func (c *inferCtx) shape(r int) Shape {
	if r == 0 {
		return Shape{}
	}
	if len(c.dims)+r > cap(c.dims) {
		c.dims = make([]int, 0, max(r, 2*cap(c.dims)))
	}
	lo := len(c.dims)
	c.dims = c.dims[:lo+r]
	return Shape(c.dims[lo : lo+r : lo+r])
}

// carve carves an n-int value from the pass's ints, capped like a
// shape, growing ints as shape grows dims.
func (c *inferCtx) carve(n int) []int64 {
	if len(c.ints)+n > cap(c.ints) {
		c.ints = make([]int64, 0, max(n, 2*cap(c.ints)))
	}
	lo := len(c.ints)
	c.ints = c.ints[:lo+n]
	return c.ints[lo : lo+n : lo+n]
}

// uncarve returns v, the last value carved, to ints.
func (c *inferCtx) uncarve(v []int64) {
	if n := len(c.ints) - len(v); n >= 0 && len(v) > 0 && &c.ints[n] == &v[0] {
		c.ints = c.ints[:n]
	}
}

// scratchInts carves n ints from the node's scratch. The lists one node
// takes stay valid while it is inferred, and no value or shape keeps
// them.
func (c *inferCtx) scratchInts(n int) []int {
	if len(c.scratch)+n > cap(c.scratch) {
		c.scratch = make([]int, 0, max(n, 2*cap(c.scratch)))
	}
	lo := len(c.scratch)
	c.scratch = c.scratch[:lo+n]
	return c.scratch[lo : lo+n : lo+n]
}

// intsOf carves v, as ints, from the node's scratch.
func (c *inferCtx) intsOf(v []int64) []int {
	out := c.scratchInts(len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// shapeOf carves a shape holding dims.
func (c *inferCtx) shapeOf(dims ...int) Shape {
	s := c.shape(len(dims))
	copy(s, dims)
	return s
}

// clone carves a copy of s; the copy of an unknown shape is unknown.
func (c *inferCtx) clone(s Shape) Shape {
	if s == nil {
		return nil
	}
	return c.shapeOf(s...)
}

// broadcast is the package's broadcast with the result carved from the
// pass's dims.
func (c *inferCtx) broadcast(a, b Shape) (Shape, error) {
	out := c.shape(max(len(a), len(b)))
	if err := broadcastInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// inVal returns the propagated value of node n's i-th input.
func (c *inferCtx) inVal(n *Node, i int) ([]int64, bool) {
	if c.valAt != nil {
		k := c.valAt[n.refs[i]]
		if k == 0 {
			return nil, false
		}
		return c.vals[k-1], true
	}
	v, ok := c.byName[n.Inputs[i]]
	return v, ok
}

// setOutVal records the propagated value of node n's i-th output.
func (c *inferCtx) setOutVal(n *Node, i int, v []int64) {
	if c.valAt != nil {
		c.setVal(n.refs[len(n.Inputs)+i], v)
		return
	}
	c.byName[n.Outputs[i]] = v
}

// setVal records the value of the tensor in slot s.
func (c *inferCtx) setVal(s int32, v []int64) {
	if k := c.valAt[s]; k != 0 {
		c.vals[k-1] = v
		return
	}
	c.vals = append(c.vals, v)
	c.valAt[s] = int32(len(c.vals))
}

func (c *inferCtx) in(n *Node, i int) (*Tensor, error) {
	if i >= len(n.Inputs) {
		return nil, fmt.Errorf("missing input %d", i)
	}
	t := c.g.In(n, i)
	if t == nil {
		return nil, fmt.Errorf("input tensor %q not registered", n.Inputs[i])
	}
	if t.Shape == nil {
		return nil, fmt.Errorf("input tensor %q has unknown shape", n.Inputs[i])
	}
	return t, nil
}

// setOut assigns shape/dtype to output i of node n.
func (c *inferCtx) setOut(n *Node, i int, shape Shape, dt DataType) error {
	if i >= len(n.Outputs) {
		return fmt.Errorf("missing output %d", i)
	}
	t := c.g.Out(n, i)
	if t == nil {
		return fmt.Errorf("output tensor %q not registered", n.Outputs[i])
	}
	t.Shape = shape
	t.DType = dt
	return nil
}

// broadcast implements numpy-style multidirectional broadcasting.
func broadcast(a, b Shape) (Shape, error) {
	out := make(Shape, max(len(a), len(b)))
	if err := broadcastInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// broadcastInto writes the broadcast of a and b into out, whose length
// is the larger of their ranks.
func broadcastInto(out, a, b Shape) error {
	ra, rb, r := len(a), len(b), len(out)
	for i := 0; i < r; i++ {
		da, db := 1, 1
		if i >= r-ra {
			da = a[i-(r-ra)]
		}
		if i >= r-rb {
			db = b[i-(r-rb)]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return fmt.Errorf("cannot broadcast %v with %v", a, b)
		}
	}
	return nil
}

// normAxis resolves a possibly-negative axis attribute against a rank
// and rejects out-of-range values — adversarial model files carry
// arbitrary axes, which must error instead of indexing out of range.
func normAxis(op string, axis, rank int) (int, error) {
	resolved := axis
	if resolved < 0 {
		resolved += rank
	}
	if resolved < 0 || resolved >= rank {
		return 0, fmt.Errorf("%s: axis %d out of range for rank %d", op, axis, rank)
	}
	return resolved, nil
}

// The defaults of a 2-D window's attributes. Attrs.Ints hands its
// default back as read-only, so every node shares these.
var (
	defaultStrides   = []int{1, 1}
	defaultPads      = []int{0, 0, 0, 0}
	defaultDilations = []int{1, 1}
)

// spatial2D validates the strides/pads/dilations attributes of a 2-D
// conv/pool window. Adversarial model files can carry short lists or
// non-positive strides, which would otherwise index out of range or
// divide by zero in poolDim. The lists it returns are read-only.
func spatial2D(n *Node) (strides, pads, dil []int, err error) {
	strides = n.Attrs.Ints("strides", defaultStrides)
	pads = n.Attrs.Ints("pads", defaultPads)
	dil = n.Attrs.Ints("dilations", defaultDilations)
	if len(strides) != 2 || strides[0] <= 0 || strides[1] <= 0 {
		return nil, nil, nil, fmt.Errorf("%s: invalid strides %v", n.OpType, strides)
	}
	if len(pads) != 4 {
		return nil, nil, nil, fmt.Errorf("%s: invalid pads %v", n.OpType, pads)
	}
	if len(dil) != 2 || dil[0] <= 0 || dil[1] <= 0 {
		return nil, nil, nil, fmt.Errorf("%s: invalid dilations %v", n.OpType, dil)
	}
	return strides, pads, dil, nil
}

// poolDim computes one spatial output dimension of a conv/pool window.
func poolDim(in, k, stride, padBegin, padEnd, dilation int, ceilMode bool) int {
	eff := (k-1)*dilation + 1
	num := in + padBegin + padEnd - eff
	if num < 0 {
		return 0
	}
	if ceilMode {
		return (num+stride-1)/stride + 1
	}
	return num/stride + 1
}

// elementwiseUnary lists op types whose output shape and dtype equal the
// first input's.
var elementwiseUnary = map[string]bool{
	"Relu": true, "LeakyRelu": true, "Sigmoid": true, "Tanh": true,
	"Erf": true, "Sqrt": true, "Exp": true, "Log": true, "Neg": true,
	"Abs": true, "Clip": true, "HardSigmoid": true, "HardSwish": true,
	"Gelu": true, "Identity": true, "Softmax": true, "LogSoftmax": true,
	"Reciprocal": true, "Floor": true, "Round": true, "Elu": true,
	"Softplus": true, "Mish": true, "Silu": true, "Dropout": true,
	"Sin": true, "Cos": true,
}

// elementwiseBinary lists broadcasted binary op types (dtype follows the
// first input unless noted in inferNode).
var elementwiseBinary = map[string]bool{
	"Add": true, "Sub": true, "Mul": true, "Div": true, "Pow": true,
	"Min": true, "Max": true, "Mod": true, "PRelu": true,
	"Equal": true, "Greater": true, "Less": true, "GreaterOrEqual": true,
	"LessOrEqual": true, "And": true, "Or": true,
}

var comparisonOps = map[string]bool{
	"Equal": true, "Greater": true, "Less": true,
	"GreaterOrEqual": true, "LessOrEqual": true,
}

func (c *inferCtx) inferNode(n *Node) error {
	switch {
	case elementwiseUnary[n.OpType]:
		x, err := c.in(n, 0)
		if err != nil {
			return err
		}
		return c.setOut(n, 0, c.clone(x.Shape), x.DType)

	case elementwiseBinary[n.OpType]:
		a, err := c.in(n, 0)
		if err != nil {
			return err
		}
		b, err := c.in(n, 1)
		if err != nil {
			return err
		}
		out, err := c.broadcast(a.Shape, b.Shape)
		if err != nil {
			return err
		}
		dt := a.DType
		if comparisonOps[n.OpType] {
			dt = Bool
		}
		// Propagate constant integer values through arithmetic on
		// shape-computation chains.
		if va, ok := c.inVal(n, 0); ok {
			if vb, ok2 := c.inVal(n, 1); ok2 && len(va) == len(vb) {
				if v := c.evalIntBinary(n.OpType, va, vb); v != nil {
					c.setOutVal(n, 0, v)
				}
			}
		}
		return c.setOut(n, 0, out, dt)
	}

	switch n.OpType {
	case "Constant":
		return c.inferConstant(n)
	case "Conv":
		return c.inferConv(n)
	case "ConvTranspose":
		return c.inferConvTranspose(n)
	case "MaxPool", "AveragePool":
		return c.inferPool(n)
	case "GlobalAveragePool", "GlobalMaxPool":
		x, err := c.in(n, 0)
		if err != nil {
			return err
		}
		out := c.clone(x.Shape)
		for i := 2; i < len(out); i++ {
			out[i] = 1
		}
		return c.setOut(n, 0, out, x.DType)
	case "BatchNormalization", "InstanceNormalization",
		"GroupNormalization", "LayerNormalization", "LpNormalization":
		x, err := c.in(n, 0)
		if err != nil {
			return err
		}
		return c.setOut(n, 0, c.clone(x.Shape), x.DType)
	case "MatMul":
		return c.inferMatMul(n)
	case "Gemm":
		return c.inferGemm(n)
	case "Transpose":
		return c.inferTranspose(n)
	case "Reshape":
		return c.inferReshape(n)
	case "Flatten":
		return c.inferFlatten(n)
	case "Concat":
		return c.inferConcat(n)
	case "Split":
		return c.inferSplit(n)
	case "Slice":
		return c.inferSlice(n)
	case "Squeeze":
		return c.inferSqueeze(n)
	case "Unsqueeze":
		return c.inferUnsqueeze(n)
	case "Gather":
		return c.inferGather(n)
	case "Shape":
		return c.inferShapeOp(n)
	case "Expand":
		return c.inferExpand(n)
	case "Pad":
		return c.inferPad(n)
	case "ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd":
		return c.inferReduce(n)
	case "Einsum":
		return c.inferEinsum(n)
	case "ArgMax", "ArgMin":
		return c.inferArgReduce(n)
	case "TopK":
		return c.inferTopK(n)
	case "Not":
		x, err := c.in(n, 0)
		if err != nil {
			return err
		}
		return c.setOut(n, 0, c.clone(x.Shape), Bool)
	case "Sum", "Mean":
		return c.inferVariadicElementwise(n)
	case "Resize", "Upsample":
		return c.inferResize(n)
	case "Cast":
		return c.inferCast(n)
	case "Where":
		return c.inferWhere(n)
	case "ConstantOfShape":
		return c.inferConstantOfShape(n)
	case "Tile":
		return c.inferTile(n)
	case "ReduceL2":
		return c.inferReduce(n)
	case "DequantizeLinear", "QuantizeLinear":
		x, err := c.in(n, 0)
		if err != nil {
			return err
		}
		dt := x.DType
		if n.OpType == "QuantizeLinear" {
			dt = Int8
		} else {
			dt = Float32
		}
		return c.setOut(n, 0, c.clone(x.Shape), dt)
	}
	return fmt.Errorf("unsupported op type %q", n.OpType)
}

// inferConstant handles ONNX Constant nodes: "value_ints" yields an
// Int64 vector with a known (propagated) value; "value_float"/"value_floats"
// yield Float32 tensors. Real PyTorch exports emit these for Reshape
// targets, Slice bounds and scalar multipliers.
func (c *inferCtx) inferConstant(n *Node) error {
	if v, ok := n.Attrs.Get("value_ints"); ok && v.Kind == AttrInts {
		vals := c.carve(len(v.Ints))
		for i, x := range v.Ints {
			vals[i] = int64(x)
		}
		c.setOutVal(n, 0, vals)
		return c.setOut(n, 0, c.shapeOf(len(vals)), Int64)
	}
	if _, ok := n.Attrs.Get("value_float"); ok {
		return c.setOut(n, 0, c.shapeOf(1), Float32)
	}
	if v, ok := n.Attrs.Get("value_floats"); ok && v.Kind == AttrInts {
		return c.setOut(n, 0, c.shapeOf(len(v.Ints)), Float32)
	}
	return fmt.Errorf("Constant node without value_ints/value_float attribute")
}

// evalIntBinary computes integer arithmetic on known values into a
// value carved from the pass's ints; nil when op is no arithmetic or
// divides by zero.
func (c *inferCtx) evalIntBinary(op string, a, b []int64) []int64 {
	switch op {
	case "Add", "Sub", "Mul", "Div":
	default:
		return nil
	}
	out := c.carve(len(a))
	for i := range a {
		switch op {
		case "Add":
			out[i] = a[i] + b[i]
		case "Sub":
			out[i] = a[i] - b[i]
		case "Mul":
			out[i] = a[i] * b[i]
		case "Div":
			if b[i] == 0 {
				c.uncarve(out)
				return nil
			}
			out[i] = a[i] / b[i]
		}
	}
	return out
}

func (c *inferCtx) inferConv(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	w, err := c.in(n, 1)
	if err != nil {
		return err
	}
	if x.Shape.Rank() != 4 || w.Shape.Rank() != 4 {
		return fmt.Errorf("Conv expects 4-D input and weight, got %v and %v", x.Shape, w.Shape)
	}
	group := n.Attrs.Int("group", 1)
	if group <= 0 {
		return fmt.Errorf("Conv: invalid group %d", group)
	}
	strides, pads, dil, err := spatial2D(n)
	if err != nil {
		return err
	}
	kh, kw := w.Shape[2], w.Shape[3]
	if cinPerGroup := w.Shape[1]; cinPerGroup*group != x.Shape[1] {
		return fmt.Errorf("Conv channel mismatch: input C=%d, weight Cin/g=%d, group=%d", x.Shape[1], cinPerGroup, group)
	}
	oh := poolDim(x.Shape[2], kh, strides[0], pads[0], pads[2], dil[0], false)
	ow := poolDim(x.Shape[3], kw, strides[1], pads[1], pads[3], dil[1], false)
	out := c.shapeOf(x.Shape[0], w.Shape[0], oh, ow)
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferConvTranspose(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	w, err := c.in(n, 1)
	if err != nil {
		return err
	}
	if x.Shape.Rank() != 4 || w.Shape.Rank() != 4 {
		return fmt.Errorf("ConvTranspose expects 4-D input and weight, got %v and %v", x.Shape, w.Shape)
	}
	group := n.Attrs.Int("group", 1)
	if group <= 0 {
		return fmt.Errorf("ConvTranspose: invalid group %d", group)
	}
	strides, pads, _, err := spatial2D(n)
	if err != nil {
		return err
	}
	kh, kw := w.Shape[2], w.Shape[3]
	oh := (x.Shape[2]-1)*strides[0] + kh - pads[0] - pads[2]
	ow := (x.Shape[3]-1)*strides[1] + kw - pads[1] - pads[3]
	out := c.shapeOf(x.Shape[0], w.Shape[1]*group, oh, ow)
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferPool(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	if x.Shape.Rank() != 4 {
		return fmt.Errorf("%s expects 4-D input, got %v", n.OpType, x.Shape)
	}
	k := n.Attrs.Ints("kernel_shape", nil)
	if len(k) != 2 {
		return fmt.Errorf("%s requires 2-D kernel_shape", n.OpType)
	}
	strides, pads, _, err := spatial2D(n)
	if err != nil {
		return err
	}
	ceil := n.Attrs.Int("ceil_mode", 0) == 1
	oh := poolDim(x.Shape[2], k[0], strides[0], pads[0], pads[2], 1, ceil)
	ow := poolDim(x.Shape[3], k[1], strides[1], pads[1], pads[3], 1, ceil)
	out := c.shapeOf(x.Shape[0], x.Shape[1], oh, ow)
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferMatMul(n *Node) error {
	a, err := c.in(n, 0)
	if err != nil {
		return err
	}
	b, err := c.in(n, 1)
	if err != nil {
		return err
	}
	sa, sb := a.Shape, b.Shape
	if len(sa) < 1 || len(sb) < 1 {
		return fmt.Errorf("MatMul on scalar")
	}
	// Promote 1-D operands per numpy semantics.
	promA, promB := false, false
	if len(sa) == 1 {
		sa = Shape{1, sa[0]}
		promA = true
	}
	if len(sb) == 1 {
		sb = Shape{sb[0], 1}
		promB = true
	}
	k1 := sa[len(sa)-1]
	k2 := sb[len(sb)-2]
	if k1 != k2 {
		return fmt.Errorf("MatMul inner dims mismatch: %v x %v", a.Shape, b.Shape)
	}
	// The broadcast batch dimensions and the two matrix dimensions are
	// written straight into the output.
	battA, battB := sa[:len(sa)-2], sb[:len(sb)-2]
	out := c.shape(max(len(battA), len(battB)) + 2)
	if err := broadcastInto(out[:len(out)-2], battA, battB); err != nil {
		return err
	}
	out[len(out)-2], out[len(out)-1] = sa[len(sa)-2], sb[len(sb)-1]
	if promA {
		out = append(out[:len(out)-2], out[len(out)-1])
	}
	if promB {
		out = out[:len(out)-1]
	}
	return c.setOut(n, 0, out, a.DType)
}

func (c *inferCtx) inferGemm(n *Node) error {
	a, err := c.in(n, 0)
	if err != nil {
		return err
	}
	b, err := c.in(n, 1)
	if err != nil {
		return err
	}
	if a.Shape.Rank() != 2 || b.Shape.Rank() != 2 {
		return fmt.Errorf("Gemm expects 2-D operands, got %v and %v", a.Shape, b.Shape)
	}
	transA := n.Attrs.Int("transA", 0) == 1
	transB := n.Attrs.Int("transB", 0) == 1
	m, ka := a.Shape[0], a.Shape[1]
	if transA {
		m, ka = ka, m
	}
	kb, nn := b.Shape[0], b.Shape[1]
	if transB {
		kb, nn = nn, kb
	}
	if ka != kb {
		return fmt.Errorf("Gemm inner dims mismatch: %v x %v (transA=%v transB=%v)", a.Shape, b.Shape, transA, transB)
	}
	return c.setOut(n, 0, c.shapeOf(m, nn), a.DType)
}

func (c *inferCtx) inferTranspose(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	perm := n.Attrs.Ints("perm", nil)
	r := x.Shape.Rank()
	if perm == nil {
		perm = make([]int, r)
		for i := range perm {
			perm[i] = r - 1 - i
		}
	}
	if len(perm) != r {
		return fmt.Errorf("Transpose perm rank %d != input rank %d", len(perm), r)
	}
	out := c.shape(r)
	for i, p := range perm {
		if p < 0 || p >= r {
			return fmt.Errorf("Transpose perm entry %d out of range for rank %d", p, r)
		}
		out[i] = x.Shape[p]
	}
	return c.setOut(n, 0, out, x.DType)
}

// reshapeTarget resolves the target shape for Reshape/Expand-style ops:
// from the "shape" attribute if present, otherwise from the known value of
// the second input tensor, in the node's scratch.
func (c *inferCtx) reshapeTarget(n *Node) ([]int, error) {
	if tgt := n.Attrs.Ints("shape", nil); tgt != nil {
		return tgt, nil
	}
	if len(n.Inputs) >= 2 {
		if v, ok := c.inVal(n, 1); ok {
			return c.intsOf(v), nil
		}
		return nil, fmt.Errorf("shape input %q has no known value", n.Inputs[1])
	}
	return nil, fmt.Errorf("no shape attribute or shape input")
}

func (c *inferCtx) inferReshape(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	tgt, err := c.reshapeTarget(n)
	if err != nil {
		return err
	}
	total := x.Shape.NumElements()
	out := c.shape(len(tgt))
	inferIdx := -1
	known := int64(1)
	for i, d := range tgt {
		switch {
		case d == -1:
			if inferIdx >= 0 {
				return fmt.Errorf("Reshape with multiple -1 dims")
			}
			inferIdx = i
		case d == 0:
			if i >= x.Shape.Rank() {
				return fmt.Errorf("Reshape dim 0 at axis %d beyond input rank", i)
			}
			out[i] = x.Shape[i]
			known *= int64(out[i])
		default:
			out[i] = d
			known *= int64(d)
		}
	}
	if inferIdx >= 0 {
		if known == 0 || total%known != 0 {
			return fmt.Errorf("Reshape cannot infer dim: %d elements into %v", total, tgt)
		}
		out[inferIdx] = int(total / known)
	}
	if out.NumElements() != total {
		return fmt.Errorf("Reshape element count mismatch: %v (%d) -> %v (%d)", x.Shape, total, out, out.NumElements())
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferFlatten(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axis := n.Attrs.Int("axis", 1)
	if axis < 0 {
		axis += x.Shape.Rank()
	}
	d0, d1 := int64(1), int64(1)
	for i, d := range x.Shape {
		if i < axis {
			d0 *= int64(d)
		} else {
			d1 *= int64(d)
		}
	}
	return c.setOut(n, 0, c.shapeOf(int(d0), int(d1)), x.DType)
}

func (c *inferCtx) inferConcat(n *Node) error {
	if len(n.Inputs) == 0 {
		return fmt.Errorf("Concat with no inputs")
	}
	first, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axis, err := normAxis("Concat", n.Attrs.Int("axis", 0), first.Shape.Rank())
	if err != nil {
		return err
	}
	out := c.clone(first.Shape)
	for i := 1; i < len(n.Inputs); i++ {
		t, err := c.in(n, i)
		if err != nil {
			return err
		}
		if t.Shape.Rank() != out.Rank() {
			return fmt.Errorf("Concat rank mismatch: %v vs %v", out, t.Shape)
		}
		for d := range out {
			if d != axis && t.Shape[d] != out[d] {
				return fmt.Errorf("Concat dim %d mismatch: %v vs %v", d, out, t.Shape)
			}
		}
		out[axis] += t.Shape[axis]
	}
	if out.Rank() == 1 {
		total := 0
		for i := range n.Inputs {
			v, ok := c.inVal(n, i)
			if !ok {
				return c.setOut(n, 0, out, first.DType)
			}
			total += len(v)
		}
		vals := c.carve(total)[:0]
		for i := range n.Inputs {
			v, _ := c.inVal(n, i)
			vals = append(vals, v...)
		}
		c.setOutVal(n, 0, vals)
	}
	return c.setOut(n, 0, out, first.DType)
}

func (c *inferCtx) inferSplit(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axis, err := normAxis("Split", n.Attrs.Int("axis", 0), x.Shape.Rank())
	if err != nil {
		return err
	}
	split := n.Attrs.Ints("split", nil)
	if split == nil {
		parts := len(n.Outputs)
		if parts == 0 || x.Shape[axis]%parts != 0 {
			return fmt.Errorf("Split cannot evenly divide dim %d (%d) into %d outputs", axis, x.Shape[axis], parts)
		}
		split = c.scratchInts(parts)
		for i := range split {
			split[i] = x.Shape[axis] / parts
		}
	}
	if len(split) != len(n.Outputs) {
		return fmt.Errorf("Split sizes (%d) != outputs (%d)", len(split), len(n.Outputs))
	}
	sum := 0
	for i, s := range split {
		out := c.clone(x.Shape)
		out[axis] = s
		sum += s
		if err := c.setOut(n, i, out, x.DType); err != nil {
			return err
		}
	}
	if sum != x.Shape[axis] {
		return fmt.Errorf("Split sizes sum to %d, dim is %d", sum, x.Shape[axis])
	}
	return nil
}

func (c *inferCtx) inferSlice(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	starts := n.Attrs.Ints("starts", nil)
	ends := n.Attrs.Ints("ends", nil)
	axes := n.Attrs.Ints("axes", nil)
	steps := n.Attrs.Ints("steps", nil)
	// Opset >= 10 form: starts/ends/axes/steps as (constant) inputs.
	intsFromInput := func(i int) []int {
		if i >= len(n.Inputs) {
			return nil
		}
		v, ok := c.inVal(n, i)
		if !ok {
			return nil
		}
		return c.intsOf(v)
	}
	if starts == nil {
		starts = intsFromInput(1)
	}
	if ends == nil {
		ends = intsFromInput(2)
	}
	if axes == nil && len(n.Inputs) > 3 {
		axes = intsFromInput(3)
	}
	if steps == nil && len(n.Inputs) > 4 {
		steps = intsFromInput(4)
	}
	if starts == nil || ends == nil {
		return fmt.Errorf("Slice requires starts/ends (attributes or constant inputs)")
	}
	if axes == nil {
		axes = c.scratchInts(len(starts))
		for i := range axes {
			axes[i] = i
		}
	}
	out := c.clone(x.Shape)
	for i, ax := range axes {
		if ax < 0 {
			ax += x.Shape.Rank()
		}
		dim := x.Shape[ax]
		st, en := starts[i], ends[i]
		step := 1
		if steps != nil {
			step = steps[i]
		}
		if st < 0 {
			st += dim
		}
		if en < 0 {
			en += dim
		}
		if en > dim {
			en = dim
		}
		if st > dim {
			st = dim
		}
		sz := 0
		if step > 0 && en > st {
			sz = (en - st + step - 1) / step
		}
		out[ax] = sz
	}
	// Value propagation for 1-D int tensors.
	if v, ok := c.inVal(n, 0); ok && x.Shape.Rank() == 1 && len(axes) == 1 && (steps == nil || steps[0] == 1) {
		st, en := starts[0], ends[0]
		if st < 0 {
			st += len(v)
		}
		if en < 0 {
			en += len(v)
		}
		if en > len(v) {
			en = len(v)
		}
		if st >= 0 && st <= en {
			c.setOutVal(n, 0, v[st:en])
		}
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferSqueeze(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axes := n.Attrs.Ints("axes", nil)
	drop := map[int]bool{}
	if axes == nil {
		for i, d := range x.Shape {
			if d == 1 {
				drop[i] = true
			}
		}
	} else {
		for _, a := range axes {
			if a < 0 {
				a += x.Shape.Rank()
			}
			drop[a] = true
		}
	}
	kept := 0
	for i := range x.Shape {
		if !drop[i] {
			kept++
		}
	}
	out := c.shape(kept)[:0]
	for i, d := range x.Shape {
		if !drop[i] {
			out = append(out, d)
		}
	}
	if v, ok := c.inVal(n, 0); ok {
		c.setOutVal(n, 0, v)
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferUnsqueeze(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axes := n.Attrs.Ints("axes", nil)
	if axes == nil {
		return fmt.Errorf("Unsqueeze requires axes")
	}
	r := x.Shape.Rank() + len(axes)
	ins := map[int]bool{}
	for _, a := range axes {
		a, err := normAxis("Unsqueeze", a, r)
		if err != nil {
			return err
		}
		ins[a] = true
	}
	if len(ins) != len(axes) {
		return fmt.Errorf("Unsqueeze: duplicate axes %v", axes)
	}
	out := c.shape(r)[:0]
	src := 0
	for i := 0; i < r; i++ {
		if ins[i] {
			out = append(out, 1)
		} else {
			out = append(out, x.Shape[src])
			src++
		}
	}
	if v, ok := c.inVal(n, 0); ok {
		c.setOutVal(n, 0, v)
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferGather(n *Node) error {
	data, err := c.in(n, 0)
	if err != nil {
		return err
	}
	idx, err := c.in(n, 1)
	if err != nil {
		return err
	}
	axis, err := normAxis("Gather", n.Attrs.Int("axis", 0), data.Shape.Rank())
	if err != nil {
		return err
	}
	out := c.shape(data.Shape.Rank() - 1 + idx.Shape.Rank())[:0]
	out = append(out, data.Shape[:axis]...)
	out = append(out, idx.Shape...)
	out = append(out, data.Shape[axis+1:]...)
	// Value propagation: gathering from a known 1-D value with known
	// scalar/1-D indices.
	if v, ok := c.inVal(n, 0); ok && axis == 0 {
		if iv, ok2 := c.inVal(n, 1); ok2 {
			res := c.carve(len(iv))
			okAll := true
			for k, i := range iv {
				if i < 0 {
					i += int64(len(v))
				}
				if i < 0 || int(i) >= len(v) {
					okAll = false
					break
				}
				res[k] = v[i]
			}
			if okAll {
				c.setOutVal(n, 0, res)
			} else {
				c.uncarve(res)
			}
		}
	}
	return c.setOut(n, 0, out, data.DType)
}

func (c *inferCtx) inferShapeOp(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	v := c.carve(x.Shape.Rank())
	for i, d := range x.Shape {
		v[i] = int64(d)
	}
	c.setOutVal(n, 0, v)
	return c.setOut(n, 0, c.shapeOf(x.Shape.Rank()), Int64)
}

func (c *inferCtx) inferExpand(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	tgt, err := c.reshapeTarget(n)
	if err != nil {
		return err
	}
	out, err := c.broadcast(x.Shape, Shape(tgt))
	if err != nil {
		return err
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferPad(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	pads := n.Attrs.Ints("pads", nil)
	r := x.Shape.Rank()
	if len(pads) != 2*r {
		return fmt.Errorf("Pad requires %d pad values, got %d", 2*r, len(pads))
	}
	out := c.clone(x.Shape)
	for i := 0; i < r; i++ {
		out[i] += pads[i] + pads[r+i]
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferReduce(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axes := n.Attrs.Ints("axes", nil)
	keep := n.Attrs.Int("keepdims", 1) == 1
	if axes == nil {
		if keep {
			out := c.shape(x.Shape.Rank())
			for i := range out {
				out[i] = 1
			}
			return c.setOut(n, 0, out, x.DType)
		}
		return c.setOut(n, 0, Shape{}, x.DType)
	}
	red := map[int]bool{}
	for _, a := range axes {
		if a < 0 {
			a += x.Shape.Rank()
		}
		red[a] = true
	}
	kept := 0
	for i := range x.Shape {
		if keep || !red[i] {
			kept++
		}
	}
	out := c.shape(kept)[:0]
	for i, d := range x.Shape {
		switch {
		case red[i] && keep:
			out = append(out, 1)
		case red[i]:
		default:
			out = append(out, d)
		}
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferResize(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	scales := n.Attrs.Ints("scales", nil)
	if scales == nil {
		return fmt.Errorf("Resize requires integer scales attribute")
	}
	if len(scales) != x.Shape.Rank() {
		return fmt.Errorf("Resize scales rank %d != input rank %d", len(scales), x.Shape.Rank())
	}
	out := c.shape(x.Shape.Rank())
	for i := range out {
		out[i] = x.Shape[i] * scales[i]
	}
	return c.setOut(n, 0, out, x.DType)
}

func (c *inferCtx) inferCast(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	to := n.Attrs.String("to", "")
	dt, err := ParseDataType(to)
	if err != nil {
		return fmt.Errorf("Cast: %w", err)
	}
	if v, ok := c.inVal(n, 0); ok {
		c.setOutVal(n, 0, v)
	}
	return c.setOut(n, 0, c.clone(x.Shape), dt)
}

func (c *inferCtx) inferWhere(n *Node) error {
	cond, err := c.in(n, 0)
	if err != nil {
		return err
	}
	a, err := c.in(n, 1)
	if err != nil {
		return err
	}
	b, err := c.in(n, 2)
	if err != nil {
		return err
	}
	s, err := broadcast(cond.Shape, a.Shape)
	if err != nil {
		return err
	}
	out, err := c.broadcast(s, b.Shape)
	if err != nil {
		return err
	}
	return c.setOut(n, 0, out, a.DType)
}

func (c *inferCtx) inferConstantOfShape(n *Node) error {
	tgt, err := c.reshapeTarget(n)
	if err != nil {
		// ConstantOfShape takes the shape from input 0 in ONNX.
		if v, ok := c.inVal(n, 0); ok {
			tgt = c.intsOf(v)
		} else {
			return err
		}
	}
	return c.setOut(n, 0, c.shapeOf(tgt...), Float32)
}

// inferArgReduce handles ArgMax/ArgMin: a reduction producing Int64
// indices.
func (c *inferCtx) inferArgReduce(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	axis := n.Attrs.Int("axis", 0)
	if axis < 0 {
		axis += x.Shape.Rank()
	}
	keep := n.Attrs.Int("keepdims", 1) == 1
	kept := x.Shape.Rank()
	if !keep && axis >= 0 && axis < kept {
		kept--
	}
	out := c.shape(kept)[:0]
	for i, d := range x.Shape {
		switch {
		case i == axis && keep:
			out = append(out, 1)
		case i == axis:
		default:
			out = append(out, d)
		}
	}
	return c.setOut(n, 0, out, Int64)
}

// inferTopK produces the top-k values and indices along an axis; k
// comes from the "k" attribute or a constant second input.
func (c *inferCtx) inferTopK(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	k := n.Attrs.Int("k", 0)
	if k == 0 && len(n.Inputs) >= 2 {
		if v, ok := c.inVal(n, 1); ok && len(v) == 1 {
			k = int(v[0])
		}
	}
	if k <= 0 {
		return fmt.Errorf("TopK requires k (attribute or constant input)")
	}
	axis, err := normAxis("TopK", n.Attrs.Int("axis", -1), x.Shape.Rank())
	if err != nil {
		return err
	}
	out := c.clone(x.Shape)
	if k > out[axis] {
		return fmt.Errorf("TopK k=%d exceeds dim %d", k, out[axis])
	}
	out[axis] = k
	if err := c.setOut(n, 0, out, x.DType); err != nil {
		return err
	}
	if len(n.Outputs) >= 2 {
		return c.setOut(n, 1, c.clone(out), Int64)
	}
	return nil
}

// inferVariadicElementwise handles Sum/Mean over N broadcastable
// inputs.
func (c *inferCtx) inferVariadicElementwise(n *Node) error {
	if len(n.Inputs) == 0 {
		return fmt.Errorf("%s requires inputs", n.OpType)
	}
	first, err := c.in(n, 0)
	if err != nil {
		return err
	}
	out := first.Shape
	for i := 1; i < len(n.Inputs); i++ {
		t, err := c.in(n, i)
		if err != nil {
			return err
		}
		out, err = broadcast(out, t.Shape)
		if err != nil {
			return err
		}
	}
	return c.setOut(n, 0, c.clone(out), first.DType)
}

func (c *inferCtx) inferTile(n *Node) error {
	x, err := c.in(n, 0)
	if err != nil {
		return err
	}
	reps := n.Attrs.Ints("repeats", nil)
	if reps == nil {
		return fmt.Errorf("Tile requires repeats attribute")
	}
	if len(reps) != x.Shape.Rank() {
		return fmt.Errorf("Tile repeats rank mismatch")
	}
	out := c.clone(x.Shape)
	for i := range out {
		out[i] *= reps[i]
	}
	return c.setOut(n, 0, out, x.DType)
}
