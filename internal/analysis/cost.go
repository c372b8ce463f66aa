// Package analysis implements PRoof's analysis representations (§3.2 of
// the paper): the operator defines with their FLOP and memory-access
// prediction rules, the Analyze Representation of a model, and the
// Optimized Analyze Representation that mirrors the backend-optimized
// (fused) model, including the universal mapping interfaces
// GetSubgraphOpsByIO / SetTensorAlias / SetFusedOp used by layer mapping.
package analysis

import (
	"fmt"

	"proof/internal/graph"
)

// Cost is the predicted computation and memory traffic of one operator
// (or fused operator) for a single inference at the analyzed batch size.
//
// FLOP is "Model FLOP" in the paper's terminology: the arithmetic the
// model semantically requires, not the hardware instruction count (which
// includes padding and address arithmetic — see internal/ncusim).
type Cost struct {
	// FLOP counts floating-point (or integer, for quantized models)
	// operations, with one multiply-accumulate counted as 2 FLOP.
	FLOP int64
	// MACs counts multiply-accumulate operations for the dense-math
	// portion (convolutions and matrix multiplies).
	MACs int64
	// ReadBytes is the predicted DRAM read traffic: activation inputs
	// plus parameters actually touched.
	ReadBytes int64
	// WriteBytes is the predicted DRAM write traffic (outputs).
	WriteBytes int64
	// ParamBytes is the portion of ReadBytes that is parameters.
	ParamBytes int64
}

// MemoryBytes is the total predicted DRAM traffic (reads + writes), the
// "Memory" quantity of Eq. 1 and Table 4.
func (c Cost) MemoryBytes() int64 { return graph.AddCount(c.ReadBytes, c.WriteBytes) }

// Add returns the component-wise sum, each through graph.AddCount, so
// a sum that overflows int64 reads negative.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		FLOP:       graph.AddCount(c.FLOP, o.FLOP),
		MACs:       graph.AddCount(c.MACs, o.MACs),
		ReadBytes:  graph.AddCount(c.ReadBytes, o.ReadBytes),
		WriteBytes: graph.AddCount(c.WriteBytes, o.WriteBytes),
		ParamBytes: graph.AddCount(c.ParamBytes, o.ParamBytes),
	}
}

// overflowed reports whether a figure of c overflowed int64: every
// figure is non-negative, and graph.MulCount and graph.AddCount turn
// one that overflows negative.
func (c Cost) overflowed() bool {
	return c.FLOP < 0 || c.MACs < 0 || c.ReadBytes < 0 || c.WriteBytes < 0 || c.ParamBytes < 0 || c.MemoryBytes() < 0
}

// ArithmeticIntensity returns FLOP per byte of DRAM traffic, the x-axis
// of a roofline chart. It returns 0 when no memory traffic is predicted.
func (c Cost) ArithmeticIntensity() float64 {
	m := c.MemoryBytes()
	if m == 0 {
		return 0
	}
	return float64(c.FLOP) / float64(m)
}

func (c Cost) String() string {
	return fmt.Sprintf("Cost{%.3f GFLOP, %.1f MB mem, AI=%.2f}",
		float64(c.FLOP)/1e9, float64(c.MemoryBytes())/1e6, c.ArithmeticIntensity())
}

// basicOpFLOP maps an operator type to the per-element FLOP weight of its
// basic computation. As §3.2.1 notes, the true cost of transcendental
// operations varies across hardware; these weights are the analytical
// model's platform-independent estimates, and their share of total model
// FLOP is small enough that the error stays acceptable.
var basicOpFLOP = map[string]int64{
	"Relu": 1, "LeakyRelu": 2, "PRelu": 2, "Clip": 2,
	"Add": 1, "Sub": 1, "Mul": 1, "Min": 1, "Max": 1, "Neg": 1,
	"Abs": 1, "Floor": 1, "Round": 1,
	"Equal": 1, "Greater": 1, "Less": 1, "GreaterOrEqual": 1,
	"LessOrEqual": 1, "And": 1, "Or": 1, "Where": 1, "Mod": 2,
	"Div": 4, "Reciprocal": 4, "Sqrt": 4, "Exp": 4, "Log": 4,
	"Pow": 6, "Sin": 6, "Cos": 6,
	"Sigmoid": 6, "Tanh": 8, "Erf": 10,
	"HardSigmoid": 3, "HardSwish": 4, "Silu": 7, "Mish": 12,
	"Elu": 6, "Softplus": 8, "Gelu": 14,
}

// zeroCopyOps do not read or copy tensor contents at runtime (§3.2.1):
// they only manipulate metadata, so both FLOP and memory are zero.
var zeroCopyOps = map[string]bool{
	"Reshape": true, "Shape": true, "Flatten": true, "Squeeze": true,
	"Unsqueeze": true, "Identity": true, "Dropout": true, "Constant": true,
}

// copyOps move data without arithmetic: full read of inputs and write of
// outputs, zero FLOP.
var copyOps = map[string]bool{
	"Transpose": true, "Concat": true, "Split": true, "Slice": true,
	"Pad": true, "Expand": true, "Tile": true, "Cast": true,
	"Resize": true, "Upsample": true, "ConstantOfShape": true,
}
