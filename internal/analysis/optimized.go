package analysis

import (
	"fmt"

	"proof/internal/graph"
)

// FusedOp is the virtual operator `_FusedOp` of §3.2.3: a set of original
// operators fused into a single backend layer. It maintains the fused
// subgraph and its boundary input/output tensors.
type FusedOp struct {
	// Name is the fused operator's name, usually the backend layer
	// name it corresponds to.
	Name string
	// Nodes is the fused subgraph, in the base graph's topological
	// order.
	Nodes []*graph.Node
	// Inputs are the activation tensors consumed by the subgraph but
	// produced outside it (parameters excluded).
	Inputs []string
	// Outputs are the tensors produced by the subgraph and consumed
	// outside it (or graph outputs).
	Outputs []string
}

// Layer is one entry of the optimized model: either an original node that
// was not fused, or a FusedOp.
type Layer struct {
	Node  *graph.Node // non-nil when the layer is a single original node
	Fused *FusedOp    // non-nil when the layer is a fused operator
}

// Name returns the layer's display name.
func (l *Layer) Name() string {
	if l.Fused != nil {
		return l.Fused.Name
	}
	return l.Node.Name
}

// OpTypes returns the set of original operator types in the layer.
func (l *Layer) OpTypes() []string {
	if l.Fused == nil {
		return []string{l.Node.OpType}
	}
	seen := map[string]bool{}
	var out []string
	for _, n := range l.Fused.Nodes {
		if !seen[n.OpType] {
			seen[n.OpType] = true
			out = append(out, n.OpType)
		}
	}
	return out
}

// OriginalNodes returns the original model nodes this layer maps to —
// the backward mapping from backend layer to model design (§3.3).
func (l *Layer) OriginalNodes() []*graph.Node {
	if l.Fused != nil {
		return l.Fused.Nodes
	}
	return []*graph.Node{l.Node}
}

// OptimizedRep is the Optimized Analyze Representation (§3.2.3). It is
// derived from a base Rep; initially identical to it, it is transformed
// via SetTensorAlias and SetFusedOp calls (driven by each backend's layer
// mapping) into a structure equivalent to the backend's fused model.
type OptimizedRep struct {
	// Base is the underlying Analyze Representation.
	Base *Rep
	// fused maps each absorbed node name to the FusedOp that owns it.
	fused map[string]*FusedOp
	// fusedOps lists the fused operators in creation order.
	fusedOps []*FusedOp
	// aliases maps backend tensor names (e.g. "t2_r" created by a
	// reorder layer) to original tensor names.
	aliases map[string]string
}

// NewOptimizedRep derives an Optimized Analyze Representation from base.
func NewOptimizedRep(base *Rep) *OptimizedRep {
	return &OptimizedRep{
		Base:    base,
		fused:   map[string]*FusedOp{},
		aliases: map[string]string{},
	}
}

// SetTensorAlias declares that the backend tensor name alias refers to
// the original tensor (a reorder/reformat layer output — Figure 2's
// set_tensor_alias interface).
func (o *OptimizedRep) SetTensorAlias(alias, original string) {
	o.aliases[alias] = original
}

// ResolveTensor follows alias chains to the original tensor name.
func (o *OptimizedRep) ResolveTensor(name string) string {
	seen := map[string]bool{}
	for {
		orig, ok := o.aliases[name]
		if !ok || seen[name] {
			return name
		}
		seen[name] = true
		name = orig
	}
}

// GetSubgraphOpsByIO finds the set of original nodes that exactly
// computes the given outputs from the given inputs (Figure 2's
// get_subgraph_ops_by_io interface). Tensor names are alias-resolved.
// The search walks the producer chain backward from the outputs and
// stops at the declared inputs, parameters, and graph inputs; it errors
// when the closure requires an activation tensor that is not among the
// declared inputs.
func (o *OptimizedRep) GetSubgraphOpsByIO(inputs, outputs []string) ([]*graph.Node, error) {
	g := o.Base.Graph
	inSet := map[string]bool{}
	for _, in := range inputs {
		inSet[o.ResolveTensor(in)] = true
	}
	var nodes []*graph.Node
	seen := map[*graph.Node]bool{}
	var stack []string
	for _, out := range outputs {
		stack = append(stack, o.ResolveTensor(out))
	}
	visited := map[string]bool{}
	for len(stack) > 0 {
		tn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[tn] || inSet[tn] {
			continue
		}
		visited[tn] = true
		prod := g.Producer(tn)
		if prod == nil {
			t := g.Tensor(tn)
			if t != nil && t.Param {
				continue // parameters live inside the subgraph
			}
			if isGraphInput(g, tn) {
				return nil, fmt.Errorf("analysis: subgraph for outputs %v reaches graph input %q not listed in inputs %v", outputs, tn, inputs)
			}
			return nil, fmt.Errorf("analysis: tensor %q has no producer", tn)
		}
		if !seen[prod] {
			seen[prod] = true
			nodes = append(nodes, prod)
		}
		for _, in := range prod.Inputs {
			stack = append(stack, o.ResolveTensor(in))
		}
	}
	// Return in the base graph's topological order for determinism.
	o.Base.SortTopo(nodes)
	return nodes, nil
}

func isGraphInput(g *graph.Graph, name string) bool {
	for _, in := range g.Inputs {
		if in == name {
			return true
		}
	}
	return false
}

// SetFusedOp fuses the given original nodes into a single fused operator
// named name (Figure 2's set_fused_op interface). Each node may belong
// to at most one fused operator. The fused subgraph's boundary inputs
// and outputs are derived automatically.
func (o *OptimizedRep) SetFusedOp(name string, nodes []*graph.Node) (*FusedOp, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("analysis: SetFusedOp(%q) with no nodes", name)
	}
	inside := map[string]bool{}
	for _, n := range nodes {
		if prev, ok := o.fused[n.Name]; ok {
			return nil, fmt.Errorf("analysis: node %q already fused into %q", n.Name, prev.Name)
		}
		inside[n.Name] = true
	}
	g := o.Base.Graph
	producedBy := map[string]bool{}
	for _, n := range nodes {
		for _, out := range n.Outputs {
			producedBy[out] = true
		}
	}
	var inputs, outputs []string
	seenIn := map[string]bool{}
	for _, n := range nodes {
		for _, in := range n.Inputs {
			t := g.Tensor(in)
			if t != nil && t.Param {
				continue
			}
			if !producedBy[in] && !seenIn[in] {
				seenIn[in] = true
				inputs = append(inputs, in)
			}
		}
	}
	for _, n := range nodes {
		for _, out := range n.Outputs {
			if tensorEscapes(g, out, inside) {
				outputs = append(outputs, out)
			}
		}
	}
	// Keep nodes in topological order.
	ordered := append([]*graph.Node(nil), nodes...)
	o.Base.SortTopo(ordered)
	f := &FusedOp{Name: name, Nodes: ordered, Inputs: inputs, Outputs: outputs}
	for _, n := range ordered {
		o.fused[n.Name] = f
	}
	o.fusedOps = append(o.fusedOps, f)
	return f, nil
}

// tensorEscapes reports whether the tensor is consumed outside the fused
// set or is a graph output.
func tensorEscapes(g *graph.Graph, tensor string, inside map[string]bool) bool {
	for _, out := range g.Outputs {
		if out == tensor {
			return true
		}
	}
	for _, c := range g.Consumers(tensor) {
		if !inside[c.Name] {
			return true
		}
	}
	return false
}

// FusedOfNode returns the fused operator that absorbed the named node,
// or nil.
func (o *OptimizedRep) FusedOfNode(name string) *FusedOp { return o.fused[name] }

// Layers returns the optimized model's layer list: fused operators plus
// the remaining unfused original nodes, in the base graph's topological
// order (a fused layer sorts at its first node's position). Constant
// nodes are omitted — every runtime folds them at build time, so they
// never appear as backend layers.
func (o *OptimizedRep) Layers() []*Layer {
	var layers []*Layer
	emitted := map[*FusedOp]bool{}
	for _, n := range o.Base.order {
		if f := o.fused[n.Name]; f != nil {
			if !emitted[f] {
				emitted[f] = true
				layers = append(layers, &Layer{Fused: f})
			}
			continue
		}
		if n.OpType == "Constant" {
			continue
		}
		layers = append(layers, &Layer{Node: n})
	}
	return layers
}

// LayerCost predicts the cost of an optimized layer. For a fused layer,
// FLOP is the sum over the original operators, while memory only counts
// the subgraph boundary tensors plus parameters — intermediate tensors
// stay on-chip (§3.2.3).
func (o *OptimizedRep) LayerCost(l *Layer) (Cost, error) {
	if l.Fused == nil {
		c, ok := o.Base.NodeCost(l.Node.Name)
		if !ok {
			return Cost{}, fmt.Errorf("analysis: no cost for node %q", l.Node.Name)
		}
		return c, nil
	}
	return o.fusedCost(l.Fused)
}

func (o *OptimizedRep) fusedCost(f *FusedOp) (Cost, error) {
	g := o.Base.Graph
	var c Cost
	for _, n := range f.Nodes {
		nc, ok := o.Base.NodeCost(n.Name)
		if !ok {
			return Cost{}, fmt.Errorf("analysis: no cost for fused node %q", n.Name)
		}
		c.FLOP += nc.FLOP
		c.MACs += nc.MACs
		c.ParamBytes += nc.ParamBytes
	}
	var read, write int64
	read = c.ParamBytes
	for _, in := range f.Inputs {
		t := g.Tensor(in)
		if t == nil {
			return Cost{}, fmt.Errorf("analysis: fused input %q not registered", in)
		}
		read += t.Bytes()
	}
	for _, out := range f.Outputs {
		t := g.Tensor(out)
		if t == nil {
			return Cost{}, fmt.Errorf("analysis: fused output %q not registered", out)
		}
		write += t.Bytes()
	}
	c.ReadBytes = read
	c.WriteBytes = write
	return c, nil
}

// NaiveFusedCost sums the unfused per-operator memory predictions for a
// fused operator — the strategy §3.2.3 improves upon. Exposed for the
// ablation benchmark comparing the two.
func (o *OptimizedRep) NaiveFusedCost(f *FusedOp) (Cost, error) {
	var c Cost
	for _, n := range f.Nodes {
		nc, ok := o.Base.NodeCost(n.Name)
		if !ok {
			return Cost{}, fmt.Errorf("analysis: no cost for fused node %q", n.Name)
		}
		c = c.Add(nc)
	}
	return c, nil
}

// FindNodeByOutput returns the original node producing the (alias
// resolved) tensor, or nil.
func (o *OptimizedRep) FindNodeByOutput(tensor string) *graph.Node {
	return o.Base.Graph.Producer(o.ResolveTensor(tensor))
}

// FusedOps returns all fused operators in creation order.
func (o *OptimizedRep) FusedOps() []*FusedOp { return o.fusedOps }
