// Package models is the model zoo: from-scratch builders for the 20 DNN
// models evaluated in the paper (Table 3), plus the roofline peak-test
// pseudo model of §4.6. Models are built as graph.Graph values with the
// same layer topology as the original architectures' ONNX exports —
// including the shape-computation chains, erf-based GELU expansions and
// channel-shuffle patterns that real PyTorch→ONNX exports produce, so
// that node counts, parameter counts and theoretical FLOP line up with
// the paper's Table 3.
package models

import (
	"fmt"

	"proof/internal/graph"
)

// Builder incrementally constructs a model graph, tracking shapes via
// incremental inference so layer helpers can derive parameter shapes
// from their input tensors.
type Builder struct {
	// G is the graph under construction.
	G   *graph.Graph
	inf *graph.Inference
	seq map[string]int
	err error
}

// NewBuilder creates a builder for a new graph with the given name.
func NewBuilder(name string) *Builder {
	g := graph.New(name)
	return &Builder{G: g, inf: graph.NewIncrementalInference(g), seq: map[string]int{}}
}

// Err returns the first error encountered while building, if any. Layer
// helpers are chainable and record the first failure here.
func (b *Builder) Err() error { return b.err }

// fail records the first build error.
func (b *Builder) fail(format string, args ...any) string {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return ""
}

// fresh generates a unique name with the given prefix.
func (b *Builder) fresh(prefix string) string {
	b.seq[prefix]++
	return fmt.Sprintf("%s_%d", prefix, b.seq[prefix])
}

// Input declares a graph input tensor and returns its name.
func (b *Builder) Input(name string, dt graph.DataType, shape ...int) string {
	b.G.AddTensor(&graph.Tensor{Name: name, DType: dt, Shape: graph.Shape(shape)})
	b.G.Inputs = append(b.G.Inputs, name)
	return name
}

// Param declares a parameter (weight) tensor and returns its name.
func (b *Builder) Param(name string, shape ...int) string {
	b.G.AddTensor(&graph.Tensor{Name: name, DType: graph.Float32, Shape: graph.Shape(shape), Param: true})
	return name
}

// IntConst declares a constant int64 *initializer* tensor with a known
// value and returns its name (used where exports store constants as
// initializers, e.g. position-id tables).
func (b *Builder) IntConst(name string, values ...int64) string {
	b.G.AddTensor(&graph.Tensor{
		Name: name, DType: graph.Int64,
		Shape: graph.Shape{len(values)}, Param: true, IntData: values,
	})
	return name
}

// Const emits a Constant *node* producing an int64 vector, the way
// PyTorch exports shape targets, slice bounds and gather indices. These
// nodes count toward the model's node total (Table 3) but are folded by
// every runtime.
func (b *Builder) Const(name string, values ...int64) string {
	ints := make([]int, len(values))
	for i, v := range values {
		ints[i] = int(v)
	}
	return b.op1("Constant", name, nil, graph.Attrs{graph.IntsAttr("value_ints", ints...)})
}

// FloatConst emits a Constant node producing a 1-element fp32 scalar.
func (b *Builder) FloatConst(name string, v float64) string {
	return b.op1("Constant", name, nil, graph.Attrs{graph.FloatAttr("value_float", v)})
}

// MarkOutput declares graph outputs.
func (b *Builder) MarkOutput(names ...string) {
	b.G.Outputs = append(b.G.Outputs, names...)
}

// Shape returns the current inferred shape of a tensor.
func (b *Builder) Shape(name string) graph.Shape {
	t := b.G.Tensor(name)
	if t == nil {
		return nil
	}
	return t.Shape
}

// Channels returns dim 1 of the tensor (NCHW channel count).
func (b *Builder) Channels(name string) int {
	s := b.Shape(name)
	if len(s) < 2 {
		b.fail("models: Channels(%s): shape %v", name, s)
		return 0
	}
	return s[1]
}

// Dim returns dimension i of the tensor, recording a build error (and
// returning 1) when the shape is unknown or too short.
func (b *Builder) Dim(name string, i int) int {
	s := b.Shape(name)
	if i >= len(s) {
		b.fail("models: Dim(%s, %d): shape %v", name, i, s)
		return 1
	}
	return s[i]
}

// LastDim returns the trailing dimension of the tensor.
func (b *Builder) LastDim(name string) int {
	s := b.Shape(name)
	if len(s) == 0 {
		b.fail("models: LastDim(%s): shape %v", name, s)
		return 0
	}
	return s[len(s)-1]
}

// Node appends a node with nOut fresh output tensors and returns their
// names; it sorts attrs by name, in place (graph.MakeAttrs). All layer
// helpers funnel through here.
func (b *Builder) Node(opType, name string, inputs []string, nOut int, attrs graph.Attrs) []string {
	if b.err != nil {
		return make([]string, nOut)
	}
	if name == "" {
		name = b.fresh(opType)
	}
	outs := make([]string, nOut)
	for i := range outs {
		outs[i] = name + "_out"
		if nOut > 1 {
			outs[i] = fmt.Sprintf("%s_out%d", name, i)
		}
		b.G.AddTensor(&graph.Tensor{Name: outs[i]})
	}
	n := &graph.Node{Name: name, OpType: opType, Inputs: inputs, Outputs: outs, Attrs: graph.MakeAttrs(attrs...)}
	b.G.AddNode(n)
	if err := b.inf.InferNode(n); err != nil {
		b.fail("models: node %s (%s): %v", name, opType, err)
	}
	return outs
}

// op1 is Node with a single output.
func (b *Builder) op1(opType, name string, inputs []string, attrs graph.Attrs) string {
	return b.Node(opType, name, inputs, 1, attrs)[0]
}

// Conv adds a 2-D convolution. pad is symmetric; bias controls the bias
// input. Returns the output tensor name.
func (b *Builder) Conv(x string, cout, k, stride, pad, groups int, bias bool, name string) string {
	if b.err != nil {
		return ""
	}
	cin := b.Channels(x)
	if cin == 0 || cin%max(groups, 1) != 0 {
		return b.fail("models: Conv(%s): cin=%d groups=%d", name, cin, groups)
	}
	if name == "" {
		name = b.fresh("conv")
	}
	w := b.Param(name+"_w", cout, cin/groups, k, k)
	inputs := []string{x, w}
	if bias {
		inputs = append(inputs, b.Param(name+"_b", cout))
	}
	return b.op1("Conv", name, inputs, graph.Attrs{graph.IntsAttr("kernel_shape", k, k),
		graph.IntsAttr("strides", stride, stride), graph.IntsAttr("pads", pad, pad, pad, pad), graph.IntAttr("group", groups)})
}

// BN adds inference-mode batch normalization with per-channel params.
func (b *Builder) BN(x, name string) string {
	if b.err != nil {
		return ""
	}
	c := b.Channels(x)
	if name == "" {
		name = b.fresh("bn")
	}
	return b.op1("BatchNormalization", name, []string{
		x,
		b.Param(name+"_scale", c),
		b.Param(name+"_bias", c),
		b.Param(name+"_mean", c),
		b.Param(name+"_var", c),
	}, nil)
}

// Relu adds a ReLU.
func (b *Builder) Relu(x, name string) string {
	return b.op1("Relu", name, []string{x}, nil)
}

// Relu6 adds a clipped ReLU (Clip to [0, 6]).
func (b *Builder) Relu6(x, name string) string {
	return b.op1("Clip", name, []string{x}, graph.Attrs{graph.FloatAttr("min", 0), graph.FloatAttr("max", 6)})
}

// Sigmoid adds a sigmoid.
func (b *Builder) Sigmoid(x, name string) string {
	return b.op1("Sigmoid", name, []string{x}, nil)
}

// SiLU adds x * sigmoid(x) as the Sigmoid+Mul pair that PyTorch exports.
func (b *Builder) SiLU(x, name string) string {
	if name == "" {
		name = b.fresh("silu")
	}
	s := b.op1("Sigmoid", name+"_sig", []string{x}, nil)
	return b.op1("Mul", name+"_mul", []string{x, s}, nil)
}

// Gelu adds the erf-based GELU expansion PyTorch exports:
// y = x * 0.5 * (1 + erf(x / sqrt(2))) as Div, Erf, Add, Mul, Mul nodes.
func (b *Builder) Gelu(x, name string) string {
	if b.err != nil {
		return ""
	}
	if name == "" {
		name = b.fresh("gelu")
	}
	sqrt2 := b.scalarConst(name+"_sqrt2", 1)
	one := b.scalarConst(name+"_one", 1)
	half := b.scalarConst(name+"_half", 1)
	d := b.op1("Div", name+"_div", []string{x, sqrt2}, nil)
	e := b.op1("Erf", name+"_erf", []string{d}, nil)
	a := b.op1("Add", name+"_add", []string{e, one}, nil)
	m := b.op1("Mul", name+"_mul1", []string{x, a}, nil)
	return b.op1("Mul", name+"_mul2", []string{m, half}, nil)
}

// scalarConst emits a 1-element fp32 Constant node.
func (b *Builder) scalarConst(name string, v float64) string {
	return b.FloatConst(name, v)
}

// Add / Mul / Sub / Div add broadcasted binary ops.
func (b *Builder) Add(x, y, name string) string { return b.op1("Add", name, []string{x, y}, nil) }

// Mul adds an element-wise multiply.
func (b *Builder) Mul(x, y, name string) string { return b.op1("Mul", name, []string{x, y}, nil) }

// Sub adds an element-wise subtract.
func (b *Builder) Sub(x, y, name string) string { return b.op1("Sub", name, []string{x, y}, nil) }

// Div adds an element-wise divide.
func (b *Builder) Div(x, y, name string) string { return b.op1("Div", name, []string{x, y}, nil) }

// MaxPool adds a max pooling layer.
func (b *Builder) MaxPool(x string, k, stride, pad int, name string) string {
	return b.op1("MaxPool", name, []string{x}, graph.Attrs{graph.IntsAttr("kernel_shape", k, k),
		graph.IntsAttr("strides", stride, stride), graph.IntsAttr("pads", pad, pad, pad, pad)})
}

// GAP adds global average pooling.
func (b *Builder) GAP(x, name string) string {
	return b.op1("GlobalAveragePool", name, []string{x}, nil)
}

// ReduceMean adds a mean reduction over the given axes.
func (b *Builder) ReduceMean(x string, axes []int, keep bool, name string) string {
	kd := 0
	if keep {
		kd = 1
	}
	return b.op1("ReduceMean", name, []string{x}, graph.Attrs{graph.IntsAttr("axes", axes...), graph.IntAttr("keepdims", kd)})
}

// FC adds a fully-connected (Gemm) layer on a 2-D input.
func (b *Builder) FC(x string, out int, bias bool, name string) string {
	if b.err != nil {
		return ""
	}
	in := b.LastDim(x)
	if name == "" {
		name = b.fresh("fc")
	}
	w := b.Param(name+"_w", out, in)
	inputs := []string{x, w}
	if bias {
		inputs = append(inputs, b.Param(name+"_b", out))
	}
	return b.op1("Gemm", name, inputs, graph.Attrs{graph.IntAttr("transB", 1)})
}

// Linear adds a linear projection on the last dim of an N-D input via
// MatMul with a [in, out] weight plus a bias Add — the way PyTorch
// nn.Linear exports inside transformer blocks.
func (b *Builder) Linear(x string, out int, bias bool, name string) string {
	if b.err != nil {
		return ""
	}
	in := b.LastDim(x)
	if name == "" {
		name = b.fresh("linear")
	}
	w := b.Param(name+"_w", in, out)
	y := b.op1("MatMul", name, []string{x, w}, nil)
	if bias {
		y = b.op1("Add", name+"_bias", []string{y, b.Param(name+"_bvec", out)}, nil)
	}
	return y
}

// MatMul adds a matrix multiply between two activation tensors.
func (b *Builder) MatMul(x, y, name string) string {
	return b.op1("MatMul", name, []string{x, y}, nil)
}

// Softmax adds a softmax over the given axis.
func (b *Builder) Softmax(x string, axis int, name string) string {
	return b.op1("Softmax", name, []string{x}, graph.Attrs{graph.IntAttr("axis", axis)})
}

// LayerNorm adds layer normalization over the last dimension.
func (b *Builder) LayerNorm(x, name string) string {
	if b.err != nil {
		return ""
	}
	d := b.LastDim(x)
	if name == "" {
		name = b.fresh("ln")
	}
	return b.op1("LayerNormalization", name, []string{
		x, b.Param(name+"_scale", d), b.Param(name+"_bias", d),
	}, graph.Attrs{graph.IntAttr("axis", -1)})
}

// GroupNorm adds group normalization (NCHW).
func (b *Builder) GroupNorm(x string, groups int, name string) string {
	if b.err != nil {
		return ""
	}
	c := b.Channels(x)
	if name == "" {
		name = b.fresh("gn")
	}
	return b.op1("GroupNormalization", name, []string{
		x, b.Param(name+"_scale", c), b.Param(name+"_bias", c),
	}, graph.Attrs{graph.IntAttr("num_groups", groups)})
}

// Transpose adds a transpose with the given permutation.
func (b *Builder) Transpose(x string, perm ...int) string {
	return b.op1("Transpose", "", []string{x}, graph.Attrs{graph.IntsAttr("perm", perm...)})
}

// Reshape adds a reshape to a static target (0 = copy, -1 = infer). The
// target is carried by a Constant node feeding the Reshape's second
// input, as real exports do.
func (b *Builder) Reshape(x string, shape ...int) string {
	if b.err != nil {
		return ""
	}
	name := b.fresh("reshape")
	vals := make([]int64, len(shape))
	for i, d := range shape {
		vals[i] = int64(d)
	}
	tgt := b.Const(name+"_target", vals...)
	return b.op1("Reshape", name, []string{x, tgt}, nil)
}

// Flatten adds a flatten at the given axis.
func (b *Builder) Flatten(x string, axis int, name string) string {
	return b.op1("Flatten", name, []string{x}, graph.Attrs{graph.IntAttr("axis", axis)})
}

// Concat adds a concatenation along axis.
func (b *Builder) Concat(axis int, name string, xs ...string) string {
	return b.op1("Concat", name, xs, graph.Attrs{graph.IntAttr("axis", axis)})
}

// Split adds an even split into parts along axis.
func (b *Builder) Split(x string, axis, parts int, name string) []string {
	return b.Node("Split", name, []string{x}, parts, graph.Attrs{graph.IntAttr("axis", axis)})
}

// Slice adds a slice [start:end] along axis. The bounds travel as
// Constant-node inputs (ONNX opset >= 10 form).
func (b *Builder) Slice(x string, axis, start, end int, name string) string {
	return b.SliceStep(x, axis, start, end, 1, name)
}

// Pad adds zero padding (NCHW spatial pad).
func (b *Builder) Pad(x string, top, left, bottom, right int, name string) string {
	return b.op1("Pad", name, []string{x}, graph.Attrs{graph.IntsAttr("pads", 0, 0, top, left, 0, 0, bottom, right)})
}

// Resize2x adds a 2x nearest-neighbour spatial upsample.
func (b *Builder) Resize2x(x, name string) string {
	return b.op1("Resize", name, []string{x}, graph.Attrs{graph.IntsAttr("scales", 1, 1, 2, 2)})
}

// Embedding adds a Gather-based embedding lookup of ids into a
// [vocab, dim] table.
func (b *Builder) Embedding(ids string, vocab, dim int, name string) string {
	if name == "" {
		name = b.fresh("embed")
	}
	table := b.Param(name+"_table", vocab, dim)
	return b.op1("Gather", name, []string{table, ids}, nil)
}

// ChannelShuffle emits the ONNX export pattern of ShuffleNet's channel
// shuffle: Shape -> Gather -> Concat(with constants) -> Reshape ->
// Transpose -> Reshape. The dynamic shape chain is value-propagated by
// shape inference, exactly as PRoof handles real exports.
func (b *Builder) ChannelShuffle(x string, groups int, name string) string {
	if b.err != nil {
		return ""
	}
	if name == "" {
		name = b.fresh("shuffle")
	}
	s := b.Shape(x)
	if len(s) != 4 || s[1]%groups != 0 {
		return b.fail("models: ChannelShuffle(%s): shape %v groups %d", name, s, groups)
	}
	shp := b.op1("Shape", name+"_shape", []string{x}, nil)
	idx := b.Const(name+"_idx0", 0)
	n := b.op1("Gather", name+"_gather", []string{shp, idx}, nil)
	rest := b.Const(name+"_dims", int64(groups), int64(s[1]/groups), int64(s[2]), int64(s[3]))
	tgt := b.op1("Concat", name+"_concat", []string{n, rest}, graph.Attrs{graph.IntAttr("axis", 0)})
	r1 := b.op1("Reshape", name+"_reshape1", []string{x, tgt}, nil)
	tp := b.Transpose(r1, 0, 2, 1, 3, 4)
	return b.Reshape(tp, 0, -1, s[2], s[3])
}

// ExpandToBatch expands a parameter with leading dimension 1 (e.g. a
// class token or positional embedding) to the batch size of ref, via the
// Shape -> Gather -> Concat -> Expand chain real ONNX exports emit. The
// chain re-evaluates under shape inference when the batch changes.
func (b *Builder) ExpandToBatch(param, ref, name string) string {
	if b.err != nil {
		return ""
	}
	if name == "" {
		name = b.fresh("expand")
	}
	ps := b.Shape(param)
	if len(ps) < 1 || ps[0] != 1 {
		return b.fail("models: ExpandToBatch(%s): param shape %v must lead with 1", name, ps)
	}
	shp := b.op1("Shape", name+"_shape", []string{ref}, nil)
	idx := b.Const(name+"_idx0", 0)
	n := b.op1("Gather", name+"_gather", []string{shp, idx}, nil)
	rest := make([]int64, 0, len(ps)-1)
	for _, d := range ps[1:] {
		rest = append(rest, int64(d))
	}
	tail := b.Const(name+"_tail", rest...)
	tgt := b.op1("Concat", name+"_concat", []string{n, tail}, graph.Attrs{graph.IntAttr("axis", 0)})
	return b.op1("Expand", name, []string{param, tgt}, nil)
}

// SliceStep adds a strided slice [start:end:step] along axis, with
// bounds carried by Constant-node inputs.
func (b *Builder) SliceStep(x string, axis, start, end, step int, name string) string {
	if b.err != nil {
		return ""
	}
	if name == "" {
		name = b.fresh("slice")
	}
	starts := b.Const(name+"_starts", int64(start))
	ends := b.Const(name+"_ends", int64(end))
	axes := b.Const(name+"_axes", int64(axis))
	steps := b.Const(name+"_steps", int64(step))
	return b.op1("Slice", name, []string{x, starts, ends, axes, steps}, nil)
}

// Finish validates the built graph and returns it.
func (b *Builder) Finish() (*graph.Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.G.Outputs) == 0 {
		return nil, fmt.Errorf("models: graph %s has no outputs", b.G.Name)
	}
	if err := b.G.Validate(); err != nil {
		return nil, err
	}
	return b.G, nil
}
