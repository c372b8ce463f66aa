// Package sim simulates DNN inference execution on the modeled hardware
// platforms. It substitutes for the real runtimes + silicon the paper
// measures: per backend layer it produces a latency from a roofline-based
// model (compute time vs memory time, whichever dominates, plus launch
// overhead), with per-op-class efficiency factors that reproduce the
// paper's qualitative findings — depth-wise convolutions that cannot use
// tensor cores, data-movement layers that are pure bandwidth, attention
// GEMMs that run near peak.
//
// It also models "hardware FLOP": the instruction-counted FLOP a
// profiler like Nsight Compute reports, which differs from the
// analytical model's "model FLOP" through tile/channel padding and
// through transcendental ops executing on SFUs that the counters do not
// see (§4.2's Model FLOP vs Hardware FLOP distinction).
package sim

import (
	"unicode/utf8"

	"proof/internal/graph"
)

// Class is the execution class of a backend layer, which selects its
// efficiency envelope.
type Class int

const (
	// ClassElementwise covers pointwise arithmetic and activations.
	ClassElementwise Class = iota
	// ClassGEMM covers MatMul/Gemm layers (and attention batches).
	ClassGEMM
	// ClassConv covers standard and point-wise convolutions.
	ClassConv
	// ClassDWConv covers depth-wise (grouped, cin/group==1)
	// convolutions, which cannot use matrix units.
	ClassDWConv
	// ClassNorm covers normalization layers.
	ClassNorm
	// ClassSoftmax covers softmax.
	ClassSoftmax
	// ClassReduction covers pooling/reduction layers.
	ClassReduction
	// ClassDataMovement covers transpose/concat/slice layers — the
	// strided, zero-FLOP layers of the §4.5 ShuffleNet study.
	ClassDataMovement
	// ClassEmbedding covers gather/scatter layers.
	ClassEmbedding
	// ClassMemCopy covers contiguous copies and format conversions
	// (Cast, runtime reformat layers), which run near full bandwidth.
	ClassMemCopy
	// ClassMeta covers zero-cost metadata nodes (IsMeta): they never
	// define a fused layer's execution class.
	ClassMeta
)

var classNames = map[Class]string{
	ClassElementwise:  "elementwise",
	ClassGEMM:         "gemm",
	ClassConv:         "conv",
	ClassDWConv:       "dwconv",
	ClassNorm:         "norm",
	ClassSoftmax:      "softmax",
	ClassReduction:    "reduction",
	ClassDataMovement: "datamove",
	ClassEmbedding:    "embedding",
	ClassMemCopy:      "memcopy",
	ClassMeta:         "meta",
}

// String returns the class name used in reports and kernel names.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "unknown"
}

// IsDepthwise reports whether a Conv node is depth-wise (one input
// channel per group).
func IsDepthwise(n *graph.Node, g *graph.Graph) bool {
	if n.OpType != "Conv" {
		return false
	}
	w := g.In(n, 1)
	if w == nil || w.Shape.Rank() != 4 {
		return false
	}
	return w.Shape[1] == 1 && n.Attrs.Int("group", 1) > 1
}

// classPriority orders classes so that a fused layer takes the class of
// its most performance-defining member (a Conv+BN+Relu fusion is a conv;
// a MatMul+Softmax Myelin region is a gemm).
var classPriority = []Class{
	ClassGEMM, ClassConv, ClassDWConv, ClassSoftmax, ClassNorm,
	ClassReduction, ClassEmbedding, ClassDataMovement, ClassMemCopy,
	ClassElementwise, ClassMeta,
}

// IsShapeValue reports whether t holds a small integer shape value, as
// Shape results and the Gather, Concat and arithmetic on them do: an
// Int64 tensor of known shape with at most 64 elements.
func IsShapeValue(t *graph.Tensor) bool {
	return t != nil && t.DType == graph.Int64 && t.Shape != nil && t.Shape.NumElements() <= 64
}

// IsMeta reports whether every runtime folds node n away: constants,
// zero-copy shape manipulation (Identity and inference-mode Dropout
// included), and integer shape arithmetic, whose one output is a shape
// value. A metadata node is ClassMeta, and fusion attaches it to a
// neighbour's layer.
func IsMeta(n *graph.Node, g *graph.Graph) bool {
	switch n.OpType {
	case "Constant", "Shape", "Reshape", "Squeeze", "Unsqueeze",
		"Flatten", "Identity", "Dropout":
		return true
	}
	return len(n.Outputs) == 1 && IsShapeValue(g.Out(n, 0))
}

// ClassifyNode returns the execution class of a single node.
func ClassifyNode(n *graph.Node, g *graph.Graph) Class {
	if IsMeta(n, g) {
		return ClassMeta
	}
	switch n.OpType {
	case "MatMul", "Gemm", "Einsum":
		return ClassGEMM
	case "Conv", "ConvTranspose":
		if IsDepthwise(n, g) {
			return ClassDWConv
		}
		return ClassConv
	case "Softmax", "LogSoftmax":
		return ClassSoftmax
	case "BatchNormalization", "LayerNormalization",
		"GroupNormalization", "InstanceNormalization", "LpNormalization":
		return ClassNorm
	case "MaxPool", "AveragePool", "GlobalAveragePool", "GlobalMaxPool",
		"ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceL2",
		"ReduceProd", "ArgMax", "ArgMin", "TopK":
		return ClassReduction
	case "Gather":
		return ClassEmbedding
	case "Transpose", "Concat", "Split", "Slice", "Pad", "Expand",
		"Tile", "Resize", "Upsample", "ConstantOfShape", "Where":
		return ClassDataMovement
	case "Cast", "QuantizeLinear", "DequantizeLinear":
		return ClassMemCopy
	}
	return ClassElementwise
}

// ClassifyNodes returns the dominant class of a set of (fused) nodes.
func ClassifyNodes(nodes []*graph.Node, g *graph.Graph) Class {
	var present uint64 // bit c is set when class c occurs
	for _, n := range nodes {
		present |= 1 << ClassifyNode(n, g)
	}
	for _, c := range classPriority {
		if present&(1<<c) != 0 {
			return c
		}
	}
	return ClassElementwise
}

// AppendKernelName appends a realistic low-level kernel name for a
// backend layer of the given class on the given architecture, in the
// style of cuDNN/cuBLAS kernels ("sm80_xmma_fprop_implicit_gemm_..."),
// to dst and returns the extended slice: the architecture prefix, the
// class stem, the data type and name joined by '_', where each rune of
// name other than an ASCII letter, digit or '_', and each byte of
// invalid UTF-8, becomes one '_'. The backend kernel lowering names
// every kernel with it.
func AppendKernelName(dst []byte, arch string, class Class, dt graph.DataType, name string) []byte {
	sm, stem := kernelStem(arch, class)
	dst = append(dst, sm...)
	dst = append(dst, '_')
	dst = append(dst, stem...)
	dst = append(dst, '_')
	dst = append(dst, dt.String()...)
	dst = append(dst, '_')
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			dst = append(dst, byte(r))
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}

// KernelNameLen returns the length of the name AppendKernelName
// appends for the same arguments.
func KernelNameLen(arch string, class Class, dt graph.DataType, name string) int {
	sm, stem := kernelStem(arch, class)
	return len(sm) + len(stem) + len(dt.String()) + 3 + utf8.RuneCountInString(name)
}

// kernelStem returns a kernel name's architecture prefix and class
// stem.
func kernelStem(arch string, class Class) (sm, stem string) {
	sm = "generic"
	switch arch {
	case "ampere":
		sm = "sm80"
	case "ada":
		sm = "sm89"
	case "volta":
		sm = "sm72"
	}
	switch class {
	case ClassGEMM:
		stem = "xmma_gemm"
	case ClassConv:
		stem = "xmma_fprop_implicit_gemm"
	case ClassDWConv:
		stem = "dgrad2d_grouped_direct"
	case ClassSoftmax:
		stem = "softmax_warp_forward"
	case ClassNorm:
		stem = "norm_fused_kernel"
	case ClassReduction:
		stem = "reduce_kernel"
	case ClassDataMovement:
		stem = "copy_permute_kernel"
	case ClassMemCopy:
		stem = "cuda_memcpy_reformat"
	case ClassEmbedding:
		stem = "gather_kernel"
	default:
		stem = "elementwise_kernel"
	}
	return sm, stem
}
