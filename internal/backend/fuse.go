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
// lands in exactly one group. While the passes run, a group is known by
// its leader, the node that opened it; once every node is claimed, the
// groups are listed in one array in the order of their first nodes, and
// their node lists are carved from one array of every node, in
// topological order.
func Fuse(rep *analysis.Rep, rules FusionRules) []Group {
	g := rep.Graph
	order := rep.Nodes()
	// own records each node's group by topological position.
	own := make([]owner, len(order))
	claimed := func(n *graph.Node) bool { return own[g.Pos(n)].lead != 0 }
	claim := func(lead int, n *graph.Node) { own[g.Pos(n)].lead = int32(lead) + 1 }
	// open starts the group that the node at position i leads.
	open := func(i int, myelin, anchored bool) {
		own[i] = owner{lead: int32(i) + 1, myelin: myelin, anchored: anchored}
	}
	isOutput := func(t string) bool { return slices.Contains(g.Outputs, t) }

	// Pass 1: Myelin regions — maximal topo-contiguous runs of
	// myelin-able nodes containing at least two matrix multiplies,
	// flushed at LayerNorm boundaries to keep per-attention/per-MLP
	// granularity. A segment is the run of positions [start, i), so a
	// tensor was produced inside it when its producer sits at start or
	// later.
	if rules.Myelin {
		start := 0
		matmuls := 0
		flush := func(end, next int) {
			if matmuls >= 2 {
				open(start, true, false)
				for _, n := range order[start+1 : end] {
					claim(start, n)
				}
			}
			start = next
			matmuls = 0
		}
		connects := func(i int, n *graph.Node) bool {
			if i == start || len(n.Inputs) == 0 {
				return true // fresh segment, or a Constant
			}
			for k := range n.Inputs {
				if p := g.InProducer(n, k); p != nil && g.Pos(p) >= start {
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
				flush(i, i+1)
				continue
			}
			if n.OpType == "LayerNormalization" && matmuls >= 1 {
				flush(i, i)
			}
			// Cap regions at two matrix multiplies: Myelin emits one
			// kernel per GEMM with fused pointwise epilogues, and
			// large intermediates between GEMM pairs spill to DRAM,
			// so region granularity tracks the GEMM structure.
			if (n.OpType == "MatMul" || n.OpType == "Gemm" || n.OpType == "Einsum") && matmuls >= 2 {
				flush(i, i)
			}
			if !connects(i, n) {
				flush(i, i)
			}
			if n.OpType == "MatMul" || n.OpType == "Gemm" || n.OpType == "Einsum" {
				matmuls++
			}
		}
		flush(len(order), len(order))
	}

	// Pass 2: anchored chains. From each unclaimed anchor, absorb the
	// single-consumer chain of absorbable ops (plus the SiLU and GELU
	// multi-node patterns), as long as no consumer is claimed already.
	for i, n := range order {
		if own[i].lead != 0 || !anchorOps[n.OpType] || sim.IsMeta(n, g) {
			continue
		}
		open(i, false, true)
		tail := n
		for {
			if len(tail.Outputs) != 1 || isOutput(tail.Outputs[0]) {
				break
			}
			consumers := g.OutConsumers(tail, 0)
			if slices.ContainsFunc(consumers, claimed) {
				break // someone else already owns a consumer
			}
			if next, ok := matchSingle(consumers, rules.AbsorbOps); ok {
				claim(i, next)
				tail = next
				continue
			}
			if rules.AbsorbSiLU {
				if sig, mul, ok := matchSiLU(g, consumers); ok {
					claim(i, sig)
					claim(i, mul)
					tail = mul
					continue
				}
			}
			if rules.AbsorbGelu {
				if nodes, ok := matchGelu(g, consumers, claimed); ok {
					for _, m := range nodes {
						claim(i, m)
					}
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
			if own[i].lead != 0 || !pointwiseOps[n.OpType] || sim.IsMeta(n, g) {
				continue
			}
			open(i, false, false)
			tail := n
			for len(tail.Outputs) == 1 && !isOutput(tail.Outputs[0]) {
				consumers := g.OutConsumers(tail, 0)
				if len(consumers) != 1 || claimed(consumers[0]) {
					break
				}
				next := consumers[0]
				if !pointwiseOps[next.OpType] || sim.IsMeta(next, g) {
					break
				}
				claim(i, next)
				tail = next
			}
		}
	}

	// Pass 4: every remaining non-metadata node is its own layer.
	for i, n := range order {
		if own[i].lead == 0 && !sim.IsMeta(n, g) {
			open(i, false, false)
		}
	}

	// Pass 5: attach metadata nodes to the group of their first
	// consumer (walked in reverse topo order so chains resolve), or
	// of their producer, or a singleton group as a last resort.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if own[i].lead != 0 || !sim.IsMeta(n, g) {
			continue
		}
		var lead int32
		for o := range n.Outputs {
			for _, c := range g.OutConsumers(n, o) {
				if lead = own[g.Pos(c)].lead; lead != 0 {
					break
				}
			}
			if lead != 0 {
				break
			}
		}
		if lead == 0 {
			for k := range n.Inputs {
				if p := g.InProducer(n, k); p != nil && claimed(p) {
					lead = own[g.Pos(p)].lead
					break
				}
			}
		}
		if lead == 0 {
			open(i, false, false)
			continue
		}
		own[i].lead = lead
	}

	// Normalize: every node is claimed now. One walk, in topological
	// order, numbers the groups as it first meets them and counts each
	// group's nodes on its leader's entry; the groups array then gives
	// each group its capped run of one array of every node, and a last
	// walk lists the group's nodes there in order.
	count := 0
	for i := range order {
		l := &own[own[i].lead-1]
		if l.size == 0 {
			l.group = int32(count)
			count++
		}
		l.size++
	}
	groups := make([]Group, count)
	all := make([]*graph.Node, len(order))
	next := 0
	for i := range order {
		if own[i].lead != int32(i)+1 {
			continue
		}
		l := own[i]
		gr := &groups[l.group]
		gr.Nodes = all[next : next : next+int(l.size)]
		next += int(l.size)
		if l.myelin {
			gr.Kind = KindMyelin
		}
		if l.anchored {
			gr.Anchor = order[i]
		}
	}
	for i, n := range order {
		gr := &groups[own[own[i].lead-1].group]
		gr.Nodes = append(gr.Nodes, n)
	}
	return groups
}

// owner is a node's entry while Fuse runs: lead is one more than the
// topological position of its group's leader (0: unclaimed). A
// leader's own entry also holds its group's kind, whether the leader
// anchors it and, once normalized, its index and node count.
type owner struct {
	lead, group, size int32
	myelin, anchored  bool
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
func matchGelu(g *graph.Graph, consumers []*graph.Node, claimed func(*graph.Node) bool) (nodes [5]*graph.Node, ok bool) {
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
		if len(cs) != 1 || cs[0].OpType != op || claimed(cs[0]) {
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
