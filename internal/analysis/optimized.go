package analysis

import (
	"fmt"
	"slices"

	"proof/internal/graph"
)

// FusedOp is the virtual operator `_FusedOp` of §3.2.3: a set of original
// operators fused into a single backend layer. It maintains the fused
// subgraph and counts its boundary input/output tensors, which
// OptimizedRep.AppendBoundary lists.
type FusedOp struct {
	// Name is the fused operator's name, usually the backend layer
	// name it corresponds to.
	Name string
	// Nodes is the fused subgraph, in the base graph's topological
	// order.
	Nodes []*graph.Node
	// NumInputs counts the activation tensors consumed by the subgraph
	// but produced outside it (parameters excluded); NumOutputs the
	// tensors produced by the subgraph and consumed outside it (or
	// graph outputs).
	NumInputs, NumOutputs int

	// readBytes and writeBytes total the boundary tensors' sizes,
	// summed once by SetFusedOp from the tensors it resolved by slot;
	// missing names the first boundary tensor it found unregistered.
	readBytes, writeBytes int64
	missing               string
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

// AppendOpTypes appends the distinct original operator types in the
// layer, in node order, to dst and returns the extended slice.
func (l *Layer) AppendOpTypes(dst []string) []string {
	if l.Fused == nil {
		return append(dst, l.Node.OpType)
	}
	start := len(dst)
	for _, n := range l.Fused.Nodes {
		if !slices.Contains(dst[start:], n.OpType) {
			dst = append(dst, n.OpType)
		}
	}
	return dst
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
	// fused records the FusedOp that owns each absorbed node, by the
	// node's topological position (graph.Graph.Pos); nil for a node no
	// fused operator owns.
	fused []*FusedOp
	// aliases maps backend tensor names (e.g. "t2_r" created by a
	// reorder layer) to original tensor names.
	aliases map[string]string
}

// NewOptimizedRep derives an Optimized Analyze Representation from base.
func NewOptimizedRep(base *Rep) *OptimizedRep {
	return &OptimizedRep{
		Base:    base,
		fused:   make([]*FusedOp, len(base.order)),
		aliases: map[string]string{},
	}
}

// SetTensorAlias declares that the backend tensor name alias refers to
// the original tensor (a reorder/reformat layer output — Figure 2's
// set_tensor_alias interface).
func (o *OptimizedRep) SetTensorAlias(alias, original string) {
	o.aliases[alias] = original
}

// ResolveTensor follows alias chains to the original tensor name. A
// chain that loops stops after one step more than there are aliases,
// at whichever name of the loop it reached.
//
//lint:hotpath
func (o *OptimizedRep) ResolveTensor(name string) string {
	for steps := 0; steps <= len(o.aliases); steps++ {
		orig, ok := o.aliases[name]
		if !ok {
			break
		}
		name = orig
	}
	return name
}

// GetSubgraphOpsByIO finds the set of original nodes that exactly
// computes the given outputs from the given inputs (Figure 2's
// get_subgraph_ops_by_io interface). The declared tensor names are the
// runtime's and are alias-resolved; the search itself follows nodes'
// inputs by slot, so a node's inputs are never alias-resolved: they are
// model tensors, whose names no alias takes (see backend.BuildEngine).
// It walks the producer chain backward from the outputs
// and stops at the declared inputs, parameters, and graph inputs; it
// errors when the closure requires an activation tensor that is not
// among the declared inputs. It appends the nodes to dst in topological
// order and returns the extended list, so a caller that sized dst for
// every layer it maps recovers them all into one array.
func (o *OptimizedRep) GetSubgraphOpsByIO(dst []*graph.Node, inputs, outputs []string) ([]*graph.Node, error) {
	g := o.Base.Graph
	// The declared inputs, told apart by identity. A wide layer, which a
	// posted graph can make arbitrarily wide, keeps them in a set so the
	// walk stays linear.
	var inBuf [8]*graph.Tensor
	ins := inBuf[:0]
	for _, in := range inputs {
		if t := g.Tensor(o.ResolveTensor(in)); t != nil {
			ins = append(ins, t)
		}
	}
	var wide map[*graph.Tensor]bool
	if len(ins) > len(inBuf) {
		wide = make(map[*graph.Tensor]bool, len(ins))
		for _, t := range ins {
			wide[t] = true
		}
	}
	// The walk keeps a max-heap of producer positions. A node's
	// producers sit before it in topological order, so each node pops
	// after every consumer that pushed it, and its repeated pushes pop
	// back to back: dropping a repeat needs no visited set, and the pops
	// list the closure in reverse topological order.
	var heapBuf [16]int
	h := heapBuf[:0]
	// push queues prod, the producer of tensor t named tn, unless t is
	// a declared input or a parameter.
	push := func(tn string, t *graph.Tensor, prod *graph.Node) error {
		if t != nil && (wide[t] || wide == nil && slices.Contains(ins, t)) {
			return nil
		}
		if prod == nil {
			if t != nil && t.Param {
				return nil // parameters live inside the subgraph
			}
			if slices.Contains(g.Inputs, tn) {
				return fmt.Errorf("analysis: subgraph for outputs %v reaches graph input %q not listed in inputs %v", outputs, tn, inputs)
			}
			return fmt.Errorf("analysis: tensor %q has no producer", tn)
		}
		h = pushPos(h, g.Pos(prod))
		return nil
	}
	for _, out := range outputs {
		tn := o.ResolveTensor(out)
		t, prod := g.Lookup(tn)
		if err := push(tn, t, prod); err != nil {
			return dst, err
		}
	}
	start := len(dst)
	for last := -1; len(h) > 0; {
		var p int
		p, h = popPos(h)
		if p == last {
			continue
		}
		last = p
		n := o.Base.order[p]
		dst = append(dst, n)
		for i, in := range n.Inputs {
			if err := push(in, g.In(n, i), g.InProducer(n, i)); err != nil {
				return dst[:start], err
			}
		}
	}
	slices.Reverse(dst[start:])
	return dst, nil
}

// pushPos and popPos keep h a max-heap of topological positions. They
// take and return the slice, rather than a pointer to it, so a heap
// that starts in a caller's stack array stays there.
func pushPos(h []int, p int) []int {
	h = append(h, p)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func popPos(h []int) (int, []int) {
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		big, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return top, h
}

// SetFusedOp fuses the given original nodes into f, a fused operator
// named name (Figure 2's set_fused_op interface). Each node may belong
// to at most one fused operator. The nodes must be given in topological
// order, as every runtime's mapping and the fusion pass give them; the
// list becomes the fused operator's node list as it is, so the caller
// must not modify it afterwards. The fused subgraph's boundary inputs
// and outputs are derived automatically and counted; AppendBoundary
// lists them.
//
// f is the caller's, and the representation keeps it: each caller takes
// its fused operators from one array it sized from its own count before
// it fuses (backend.BuildEngine its multi-node groups, each runtime's
// layer mapping its multi-node layers). On error f is left as it was.
func (o *OptimizedRep) SetFusedOp(f *FusedOp, name string, nodes []*graph.Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("analysis: SetFusedOp(%q) with no nodes", name)
	}
	g := o.Base.Graph
	last := -1
	for _, n := range nodes {
		i := g.Pos(n)
		if i < 0 {
			return fmt.Errorf("analysis: SetFusedOp(%q): node %q is not in the graph", name, n.Name)
		}
		if prev := o.fused[i]; prev != nil {
			return fmt.Errorf("analysis: node %q already fused into %q", n.Name, prev.Name)
		}
		if i <= last {
			return fmt.Errorf("analysis: SetFusedOp(%q): node %q is repeated or out of topological order", name, n.Name)
		}
		last = i
	}
	*f = FusedOp{Name: name, Nodes: nodes[:len(nodes):len(nodes)]}
	// From here on the ownership table tells the subgraph apart: a node
	// is inside exactly when f owns it.
	for _, n := range nodes {
		o.fused[g.Pos(n)] = f
	}
	o.eachBoundary(f, func(name string, t *graph.Tensor) {
		f.NumInputs++
		f.readBytes = graph.AddCount(f.readBytes, f.boundaryBytes(name, t))
	}, func(name string, t *graph.Tensor) {
		f.NumOutputs++
		f.writeBytes = graph.AddCount(f.writeBytes, f.boundaryBytes(name, t))
	})
	return nil
}

// AppendBoundary appends the names of f's f.NumInputs boundary inputs,
// then of its f.NumOutputs boundary outputs, to dst, each list in node
// order, and returns the extended list.
func (o *OptimizedRep) AppendBoundary(dst []string, f *FusedOp) []string {
	add := func(name string, _ *graph.Tensor) { dst = append(dst, name) }
	o.eachBoundary(f, add, add)
	return dst
}

// eachBoundary calls in for each of f's boundary inputs, once per name,
// and then out for each of its boundary outputs, in node order.
func (o *OptimizedRep) eachBoundary(f *FusedOp, in, out func(name string, t *graph.Tensor)) {
	g := o.Base.Graph
	var seenBuf [16]string
	seen := seenBuf[:0]
	for _, n := range f.Nodes {
		for i, name := range n.Inputs {
			t := g.In(n, i)
			if t != nil && t.Param || o.owns(f, g.InProducer(n, i)) || slices.Contains(seen, name) {
				continue
			}
			seen = append(seen, name)
			in(name, t)
		}
	}
	for _, n := range f.Nodes {
		for i, name := range n.Outputs {
			if o.escapes(f, n, i) {
				out(name, g.Out(n, i))
			}
		}
	}
}

// boundaryBytes returns the size of boundary tensor t, named name,
// noting it as missing when it is not registered.
func (f *FusedOp) boundaryBytes(name string, t *graph.Tensor) int64 {
	if t == nil {
		if f.missing == "" {
			f.missing = name
		}
		return 0
	}
	return t.Bytes()
}

// owns reports whether f owns node n (false for a nil n).
func (o *OptimizedRep) owns(f *FusedOp, n *graph.Node) bool {
	return n != nil && o.fused[o.Base.Graph.Pos(n)] == f
}

// escapes reports whether node n's i-th output is consumed outside f or
// is a graph output.
func (o *OptimizedRep) escapes(f *FusedOp, n *graph.Node, i int) bool {
	g := o.Base.Graph
	if slices.Contains(g.Outputs, n.Outputs[i]) {
		return true
	}
	for _, c := range g.OutConsumers(n, i) {
		if !o.owns(f, c) {
			return true
		}
	}
	return false
}

// Layers returns the optimized model's layer list: fused operators plus
// the remaining unfused original nodes, in the base graph's topological
// order (a fused layer sorts at its first node's position). Constant
// nodes are omitted — every runtime folds them at build time, so they
// never appear as backend layers.
func (o *OptimizedRep) Layers() []*Layer {
	var layers []*Layer
	for i, n := range o.Base.order {
		if f := o.fused[i]; f != nil {
			if f.Nodes[0] == n {
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
		c, ok := o.Base.Cost(l.Node)
		if !ok {
			return Cost{}, fmt.Errorf("analysis: no cost for node %q", l.Node.Name)
		}
		return c, nil
	}
	return o.fusedCost(l.Fused)
}

func (o *OptimizedRep) fusedCost(f *FusedOp) (Cost, error) {
	if f.missing != "" {
		return Cost{}, fmt.Errorf("analysis: fused boundary tensor %q not registered", f.missing)
	}
	var c Cost
	for _, n := range f.Nodes {
		nc, ok := o.Base.Cost(n)
		if !ok {
			return Cost{}, fmt.Errorf("analysis: no cost for fused node %q", n.Name)
		}
		c.FLOP += nc.FLOP
		c.MACs += nc.MACs
		c.ParamBytes += nc.ParamBytes
	}
	c.ReadBytes = graph.AddCount(c.ParamBytes, f.readBytes)
	c.WriteBytes = f.writeBytes
	if c.overflowed() {
		return Cost{}, o.Base.Graph.OverflowDefect("", fmt.Sprintf("the traffic of fused operator %q", f.Name))
	}
	return c, nil
}

// NaiveFusedCost sums the unfused per-operator memory predictions for a
// fused operator — the strategy §3.2.3 improves upon. Exposed for the
// ablation benchmark comparing the two.
func (o *OptimizedRep) NaiveFusedCost(f *FusedOp) (Cost, error) {
	var c Cost
	for _, n := range f.Nodes {
		nc, ok := o.Base.Cost(n)
		if !ok {
			return Cost{}, fmt.Errorf("analysis: no cost for fused node %q", n.Name)
		}
		c = c.Add(nc)
	}
	return c, nil
}
