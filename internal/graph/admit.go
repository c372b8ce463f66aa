package graph

// Admission is the one place a graph is verified and its names are
// resolved. Admit runs ValidateAll, which resolves every tensor name a
// node or the graph IO lists reference to a slot, and keeps what that
// resolution found: each node's topological position and tensor slots,
// stamped on the node, and every tensor's producer and consumers by
// slot. The admitted graph is read-only from then on and may be shared
// across goroutines. Every profiling run works on its own View, which
// shares the nodes and copies only what a run writes, and reads tensors
// by slot and nodes by position; names are looked up only where a
// runtime hands them over.

// admission is what Admit computes once per graph. Every view of the
// admitted graph shares it, and nothing writes it after Admit.
type admission struct {
	// base is the admitted graph itself.
	base *Graph
	// order is the topological order. Each node's index in it is
	// stamped on the node (Node.pos), and per-run state is addressed by
	// that index.
	order []*Node
	// nodes is the name → node table.
	nodes map[string]*Node
	// slots is the name → tensor-slot table: tensors[slots[name]] is
	// the admitted tensor of that name, and a view's own copy of it
	// sits at the same slot. Slots follow the sorted tensor names.
	slots   map[string]int
	tensors []*Tensor
	// producer holds each slot's producing node (nil for graph inputs
	// and parameters). consumers lists every slot's consumers, once per
	// consuming reference in declaration order: slot s's are
	// consumers[cstart[s]:cstart[s+1]].
	producer  []*Node
	consumers []*Node
	cstart    []int32
	// digest is base's Digest as admitted.
	digest string
}

// consumersOf returns slot s's consumers, capped so an append cannot
// write into the next slot's.
func (a *admission) consumersOf(s int32) []*Node {
	lo, hi := a.cstart[s], a.cstart[s+1]
	return a.consumers[lo:hi:hi]
}

// Admit verifies g and returns it admitted, or every defect ValidateAll
// finds. The admitted graph shares g's tensors and IO lists, so neither
// g nor the admitted graph may be modified afterwards; runs write only
// to views (View). The one exception is an edge that runs InferShapes
// on a freshly admitted graph before anything else can see it.
// Admitting an admitted graph returns it unchanged.
//
// A node belongs to one admission: Admit stamps g's nodes with their
// positions and slots, so g's nodes must be the caller's own, reachable
// by no other goroutine while Admit runs. Admit never re-stamps a node
// an earlier admission took: when g's nodes were admitted before, the
// admitted graph gets copies of them instead. Clone a graph that other
// goroutines share before admitting it.
func Admit(g *Graph) (*Graph, []*ValidationError) {
	if g.Admitted() {
		return g, nil
	}
	names := g.SortedTensorNames()
	errs, r := g.validate(names)
	if len(errs) > 0 {
		return nil, errs
	}
	nodes := g.Nodes
	for _, n := range nodes {
		if n.adm != nil {
			nodes = make([]*Node, len(g.Nodes))
			for i, n := range g.Nodes {
				nodes[i] = &Node{Name: n.Name, OpType: n.OpType, Inputs: n.Inputs, Outputs: n.Outputs, Attrs: n.Attrs}
				r.nodes[n.Name] = nodes[i]
			}
			break
		}
	}
	a := &Graph{Name: g.Name, Nodes: nodes, Tensors: g.Tensors, Inputs: g.Inputs, Outputs: g.Outputs}
	adm := &admission{
		base:      a,
		order:     make([]*Node, len(r.order)),
		nodes:     r.nodes,
		slots:     r.slots,
		tensors:   r.tensors,
		producer:  make([]*Node, len(names)),
		consumers: make([]*Node, len(r.consumers)),
		cstart:    r.cstart,
		digest:    g.digest(names, r.tensors),
	}
	for p, i := range r.order {
		n := nodes[i]
		adm.order[p] = n
		n.adm, n.pos = adm, p
		n.refs = r.refs[r.refAt[i]:r.refAt[i+1]:r.refAt[i+1]]
	}
	for s, i := range r.producer {
		if i >= 0 {
			adm.producer[s] = nodes[i]
		}
	}
	for k, i := range r.consumers {
		adm.consumers[k] = nodes[i]
	}
	a.adm = adm
	return a, nil
}

// Admitted reports whether g is an admitted graph (not a view of one).
func (g *Graph) Admitted() bool {
	return g.adm != nil && g.adm.base == g
}

// isView reports whether g is a view of an admitted graph.
func (g *Graph) isView() bool {
	return g.adm != nil && g.adm.base != g
}

// AdmittedOrder returns the topological order computed at admission,
// for an admitted graph or any of its views; ok is false for a graph
// that was never admitted. Each node's index in it is Pos. Callers must
// not modify the order.
func (g *Graph) AdmittedOrder() (order []*Node, ok bool) {
	if g.adm == nil {
		return nil, false
	}
	return g.adm.order, true
}

// View returns a per-run view of an admitted graph (of the admitted
// graph a view came from, when called on a view). The view shares the
// admitted nodes — names, op types, IO lists, attributes, positions and
// slots — the graph IO lists, the order and the name and slot tables;
// none of those may be written. It owns a copy of every Tensor struct,
// in one slice addressed by slot, because rebatching, dtype conversion
// and shape inference write shapes and data types, and a copy of each
// graph input's shape, which rebatching writes in place. A view's
// Tensors field is nil: read its tensors through Tensor, In, Out and
// the other Graph methods, and Clone it for a raw graph. View panics on
// a graph that was never admitted.
func (g *Graph) View() *Graph {
	a := g.adm
	if a == nil {
		panic("graph: View of graph " + g.Name + ", which was not admitted")
	}
	base := a.base
	v := &Graph{
		Name: base.Name, Nodes: base.Nodes, Inputs: base.Inputs, Outputs: base.Outputs,
		adm:     a,
		tensors: make([]Tensor, len(a.tensors)),
	}
	for i, t := range a.tensors {
		v.tensors[i] = *t
	}
	for _, in := range base.Inputs {
		t := &v.tensors[a.slots[in]]
		t.Shape = t.Shape.Clone()
	}
	return v
}
