package graph

// Admission is the one place a graph is verified. Admit runs
// ValidateAll, builds the producer/consumer index and the topological
// order, and fingerprints the content once; the admitted graph is
// read-only from then on and may be shared across goroutines. Every
// profiling run works on its own View, which shares the nodes and
// copies only what a run writes.

// admission is what Admit computes once per graph. Every view of the
// admitted graph shares it, and nothing writes it after Admit.
type admission struct {
	// base is the admitted graph itself.
	base *Graph
	// order is the topological order; pos is its inverse, each node's
	// index in order. Per-run state is addressed by that index.
	order []*Node
	pos   map[*Node]int
	// nodes is the name → node table.
	nodes map[string]*Node
	// slots is the name → tensor-slot table: tensors[slots[name]] is
	// the admitted tensor of that name, and a view's own copy of it
	// sits at the same slot. Slots follow the sorted tensor names.
	slots   map[string]int
	tensors []*Tensor
	// digest is base's Digest as admitted.
	digest string
}

// Admit verifies g and returns it admitted, or every defect ValidateAll
// finds. The admitted graph shares g's nodes, tensors and IO lists, so
// neither g nor the admitted graph may be modified afterwards; runs
// write only to views (View). The one exception is an edge that runs
// InferShapes on a freshly admitted graph before anything else can see
// it. Admitting an admitted graph returns it unchanged.
func Admit(g *Graph) (*Graph, []*ValidationError) {
	if g.Admitted() {
		return g, nil
	}
	errs, order, nodes := g.validate()
	if len(errs) > 0 {
		return nil, errs
	}
	a := &Graph{Name: g.Name, Nodes: g.Nodes, Tensors: g.Tensors, Inputs: g.Inputs, Outputs: g.Outputs, idx: g.index()}
	names := g.SortedTensorNames()
	adm := &admission{
		base:    a,
		order:   order,
		pos:     make(map[*Node]int, len(order)),
		nodes:   nodes,
		slots:   make(map[string]int, len(names)),
		tensors: make([]*Tensor, len(names)),
		digest:  g.digest(names),
	}
	for i, n := range order {
		adm.pos[n] = i
	}
	for i, name := range names {
		adm.slots[name] = i
		adm.tensors[i] = g.Tensors[name]
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

// AdmittedOrder returns the topological order computed at admission
// and each node's index in it, for an admitted graph or any of its
// views; ok is false for a graph that was never admitted. Callers must
// not modify either.
func (g *Graph) AdmittedOrder() (order []*Node, pos map[*Node]int, ok bool) {
	if g.adm == nil {
		return nil, nil, false
	}
	return g.adm.order, g.adm.pos, true
}

// View returns a per-run view of an admitted graph (of the admitted
// graph a view came from, when called on a view). The view shares the
// admitted nodes — names, op types, IO lists, attributes — the graph
// IO lists, the index, the order and the name tables; none of those
// may be written. It owns a copy of every Tensor struct, in one slice
// addressed through the admission's slot table, because rebatching,
// dtype conversion and shape inference write shapes and data types,
// and a copy of each graph input's shape, which rebatching writes in
// place. A view's Tensors field is nil: read its tensors through Tensor
// and the other Graph methods, and Clone it for a raw graph. View
// panics on a graph that was never admitted.
func (g *Graph) View() *Graph {
	a := g.adm
	if a == nil {
		panic("graph: View of graph " + g.Name + ", which was not admitted")
	}
	base := a.base
	v := &Graph{
		Name: base.Name, Nodes: base.Nodes, Inputs: base.Inputs, Outputs: base.Outputs,
		idx:     base.idx,
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
