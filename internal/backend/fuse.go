package backend

import (
	"slices"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/sim"
)

// GroupKind distinguishes ordinary fusion groups from opaque
// Myelin-style regions.
type GroupKind int

const (
	// KindNormal is an ordinary (chain) fusion group or single layer.
	KindNormal GroupKind = iota
	// KindMyelin is an opaque compiler region fusing a transformer
	// sub-graph (TensorRT's Myelin optimizer).
	KindMyelin
)

// Group is one backend layer's worth of original nodes, before naming
// and info-regime decisions.
type Group struct {
	// Kind is the group kind.
	Kind GroupKind
	// Nodes are the original nodes, in topological order, including
	// folded metadata nodes (Constants, shape chains, Reshapes).
	Nodes []*graph.Node
	// Anchor is the group's defining compute node (nil for pure
	// data-movement or Myelin groups).
	Anchor *graph.Node

	// size counts the group's nodes while Fuse lists them.
	size int
}

// FusionRules parameterizes a backend's graph-optimization pipeline.
type FusionRules struct {
	// AbsorbOps are op types a compute chain absorbs downstream of an
	// anchor (activations, BatchNorm folding, residual Adds...).
	AbsorbOps map[string]bool
	// AbsorbSiLU absorbs the Sigmoid+Mul pair PyTorch exports for
	// SiLU activations.
	AbsorbSiLU bool
	// AbsorbGelu absorbs the 5-node erf-based GELU expansion.
	AbsorbGelu bool
	// Myelin enables opaque transformer-region fusion.
	Myelin bool
	// PointwiseRuns fuses chains of pure elementwise nodes even
	// without a conv/matmul anchor.
	PointwiseRuns bool
}

// anchorOps start fusion chains.
var anchorOps = map[string]bool{
	"Conv": true, "ConvTranspose": true, "Gemm": true, "MatMul": true,
	"Einsum": true,
}

// pointwiseOps may participate in pointwise runs.
var pointwiseOps = map[string]bool{
	"Relu": true, "Clip": true, "Sigmoid": true, "Tanh": true, "Erf": true,
	"Add": true, "Sub": true, "Mul": true, "Div": true, "Pow": true,
	"Sqrt": true, "Exp": true, "Log": true, "HardSwish": true,
	"HardSigmoid": true, "LeakyRelu": true, "Neg": true, "Abs": true,
}

// myelinOps may be swallowed by an opaque region (no convolutions or
// pooling: Myelin targets transformer subgraphs).
var myelinOps = map[string]bool{
	"MatMul": true, "Gemm": true, "Einsum": true, "Add": true, "Sub": true, "Mul": true,
	"Div": true, "Pow": true, "Sqrt": true, "Erf": true, "Softmax": true,
	"LayerNormalization": true, "ReduceMean": true, "Transpose": true,
	"Reshape": true, "Split": true, "Concat": true, "Slice": true,
	"Squeeze": true, "Unsqueeze": true, "Expand": true, "Shape": true,
	"Constant": true, "Gather": true, "Cast": true, "Sigmoid": true,
	"Tanh": true, "Gelu": true, "Where": true, "Relu": true,
}

// Fuse runs the backend's graph optimizer: it partitions the model's
// nodes into fusion groups according to rules. Every non-Constant node
// lands in exactly one group. The passes only record each node's
// group; once every node is claimed, the groups' node lists are carved
// from one array of every node, in topological order.
func Fuse(rep *analysis.Rep, rules FusionRules) []*Group {
	g := rep.Graph
	order := rep.Nodes()
	// claimed records each node's group by topological position.
	claimed := make([]*Group, len(order))
	claimedBy := func(n *graph.Node) *Group { return claimed[g.Pos(n)] }
	claim := func(gr *Group, nodes ...*graph.Node) {
		for _, n := range nodes {
			claimed[g.Pos(n)] = gr
		}
	}
	var groups []*Group
	newGroup := func(kind GroupKind, anchor *graph.Node, nodes ...*graph.Node) *Group {
		gr := &Group{Kind: kind, Anchor: anchor}
		claim(gr, nodes...)
		groups = append(groups, gr)
		return gr
	}
	isOutput := func(t string) bool { return slices.Contains(g.Outputs, t) }

	// Pass 1: Myelin regions — maximal topo-contiguous runs of
	// myelin-able nodes containing at least two matrix multiplies,
	// flushed at LayerNorm boundaries to keep per-attention/per-MLP
	// granularity. A segment is the run of positions [start, i), so a
	// tensor was produced inside it when its producer sits at start or
	// later. Claiming copies nothing, so one segment buffer serves
	// every flush.
	if rules.Myelin {
		var segment []*graph.Node
		start := 0
		matmuls := 0
		flush := func(next int) {
			if matmuls >= 2 {
				newGroup(KindMyelin, nil, segment...)
			}
			segment = segment[:0]
			start = next
			matmuls = 0
		}
		connects := func(n *graph.Node) bool {
			if len(segment) == 0 || len(n.Inputs) == 0 {
				return true // fresh segment, or a Constant
			}
			for i := range n.Inputs {
				if p := g.InProducer(n, i); p != nil && g.Pos(p) >= start {
					return true
				}
			}
			// Nodes reading only tensors from *before* the segment
			// (e.g. a residual shortcut) still connect when their
			// output feeds nothing... be conservative: require a
			// produced input, except for metadata.
			return sim.IsMeta(n, g)
		}
		for i, n := range order {
			if !myelinOps[n.OpType] {
				flush(i + 1)
				continue
			}
			if n.OpType == "LayerNormalization" && matmuls >= 1 {
				flush(i)
			}
			// Cap regions at two matrix multiplies: Myelin emits one
			// kernel per GEMM with fused pointwise epilogues, and
			// large intermediates between GEMM pairs spill to DRAM,
			// so region granularity tracks the GEMM structure.
			if (n.OpType == "MatMul" || n.OpType == "Gemm" || n.OpType == "Einsum") && matmuls >= 2 {
				flush(i)
			}
			if !connects(n) {
				flush(i)
			}
			segment = append(segment, n)
			if n.OpType == "MatMul" || n.OpType == "Gemm" || n.OpType == "Einsum" {
				matmuls++
			}
		}
		flush(len(order))
	}

	// Pass 2: anchored chains. From each unclaimed anchor, absorb the
	// single-consumer chain of absorbable ops (plus the SiLU and GELU
	// multi-node patterns), as long as no consumer is claimed already.
	for i, n := range order {
		if claimed[i] != nil || !anchorOps[n.OpType] || sim.IsMeta(n, g) {
			continue
		}
		gr := newGroup(KindNormal, n, n)
		tail := n
		for {
			if len(tail.Outputs) != 1 || isOutput(tail.Outputs[0]) {
				break
			}
			consumers := g.OutConsumers(tail, 0)
			if slices.ContainsFunc(consumers, func(c *graph.Node) bool { return claimedBy(c) != nil }) {
				break // someone else already owns a consumer
			}
			if next, ok := matchSingle(consumers, rules.AbsorbOps); ok {
				claim(gr, next)
				tail = next
				continue
			}
			if rules.AbsorbSiLU {
				if sig, mul, ok := matchSiLU(g, consumers); ok {
					claim(gr, sig, mul)
					tail = mul
					continue
				}
			}
			if rules.AbsorbGelu {
				if nodes, ok := matchGelu(g, consumers, claimedBy); ok {
					claim(gr, nodes[:]...)
					tail = nodes[len(nodes)-1]
					continue
				}
			}
			break
		}
	}

	// Pass 3: pointwise runs.
	if rules.PointwiseRuns {
		for i, n := range order {
			if claimed[i] != nil || !pointwiseOps[n.OpType] || sim.IsMeta(n, g) {
				continue
			}
			gr := newGroup(KindNormal, nil, n)
			tail := n
			for len(tail.Outputs) == 1 && !isOutput(tail.Outputs[0]) {
				consumers := g.OutConsumers(tail, 0)
				if len(consumers) != 1 || claimedBy(consumers[0]) != nil {
					break
				}
				next := consumers[0]
				if !pointwiseOps[next.OpType] || sim.IsMeta(next, g) {
					break
				}
				claim(gr, next)
				tail = next
			}
		}
	}

	// Pass 4: every remaining non-metadata node is its own layer.
	for i, n := range order {
		if claimed[i] == nil && !sim.IsMeta(n, g) {
			newGroup(KindNormal, nil, n)
		}
	}

	// Pass 5: attach metadata nodes to the group of their first
	// consumer (walked in reverse topo order so chains resolve), or
	// of their producer, or a singleton group as a last resort.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if claimed[i] != nil || !sim.IsMeta(n, g) {
			continue
		}
		var target *Group
		for o := range n.Outputs {
			for _, c := range g.OutConsumers(n, o) {
				if gr := claimedBy(c); gr != nil {
					target = gr
					break
				}
			}
			if target != nil {
				break
			}
		}
		if target == nil {
			for i := range n.Inputs {
				if p := g.InProducer(n, i); p != nil && claimedBy(p) != nil {
					target = claimedBy(p)
					break
				}
			}
		}
		if target == nil {
			newGroup(KindNormal, nil, n)
			continue
		}
		claim(target, n)
	}

	// Normalize: every node is claimed now. One walk counts each
	// group's nodes; the next, in topological order, gives each group
	// its capped run of one array of every node as it first meets the
	// group, lists the group's nodes there in order, and lists the
	// groups in the order of their first nodes.
	for _, gr := range claimed {
		gr.size++
	}
	all := make([]*graph.Node, len(order))
	sorted := groups[:0]
	next := 0
	for i, n := range order {
		gr := claimed[i]
		if gr.Nodes == nil {
			gr.Nodes = all[next : next : next+gr.size]
			next += gr.size
			sorted = append(sorted, gr)
		}
		gr.Nodes = append(gr.Nodes, n)
	}
	return sorted
}

func matchSingle(consumers []*graph.Node, absorb map[string]bool) (*graph.Node, bool) {
	if len(consumers) != 1 {
		return nil, false
	}
	c := consumers[0]
	if absorb[c.OpType] {
		return c, true
	}
	return nil, false
}

// matchSiLU detects   t -> Sigmoid -> s
//
//	t ----------------> Mul(t, s)
//
// among t's consumers.
func matchSiLU(g *graph.Graph, consumers []*graph.Node) (sig, mul *graph.Node, ok bool) {
	if len(consumers) != 2 {
		return nil, nil, false
	}
	for _, c := range consumers {
		switch c.OpType {
		case "Sigmoid":
			sig = c
		case "Mul":
			mul = c
		}
	}
	if sig == nil || mul == nil || len(sig.Outputs) != 1 {
		return nil, nil, false
	}
	sc := g.OutConsumers(sig, 0)
	if len(sc) != 1 || sc[0] != mul {
		return nil, nil, false
	}
	return sig, mul, true
}

// matchGelu detects the erf expansion
//
//	t -> Div(t,c) -> Erf -> Add(e,1) -> Mul(t,a) -> Mul(m, 0.5)
//
// among t's consumers, and returns the five compute nodes in order.
func matchGelu(g *graph.Graph, consumers []*graph.Node, claimedBy func(*graph.Node) *Group) (nodes [5]*graph.Node, ok bool) {
	var div, mul1 *graph.Node
	for _, c := range consumers {
		switch c.OpType {
		case "Div":
			div = c
		case "Mul":
			mul1 = c
		}
	}
	if div == nil || mul1 == nil {
		return nodes, false
	}
	next := func(n *graph.Node, op string) *graph.Node {
		if len(n.Outputs) != 1 {
			return nil
		}
		cs := g.OutConsumers(n, 0)
		if len(cs) != 1 || cs[0].OpType != op || claimedBy(cs[0]) != nil {
			return nil
		}
		return cs[0]
	}
	erf := next(div, "Erf")
	if erf == nil {
		return nodes, false
	}
	add := next(erf, "Add")
	if add == nil {
		return nodes, false
	}
	m1 := next(add, "Mul")
	if m1 == nil || m1 != mul1 {
		return nodes, false
	}
	m2 := next(m1, "Mul")
	if m2 == nil {
		return nodes, false
	}
	return [5]*graph.Node{div, erf, add, m1, m2}, true
}
