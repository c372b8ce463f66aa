package graph

// Admission is the one place a graph is verified. Admit runs
// ValidateAll, builds the producer/consumer index and the topological
// order, and fingerprints the content once; the admitted graph is
// read-only from then on and may be shared across goroutines. Every
// profiling run works on its own View, which shares the nodes and
// copies only what a run writes.

// admission is what Admit computes once per graph. Every view of the
// admitted graph shares it.
type admission struct {
	// base is the admitted graph itself.
	base *Graph
	// order is the topological order; pos is its inverse, each node's
	// index in order.
	order []*Node
	pos   map[*Node]int
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
	errs, order := g.validate()
	if len(errs) > 0 {
		return nil, errs
	}
	a := &Graph{Name: g.Name, Nodes: g.Nodes, Tensors: g.Tensors, Inputs: g.Inputs, Outputs: g.Outputs, idx: g.index()}
	pos := make(map[*Node]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	a.adm = &admission{base: a, order: order, pos: pos, digest: g.Digest()}
	return a, nil
}

// Admitted reports whether g is an admitted graph (not a view of one).
func (g *Graph) Admitted() bool {
	return g.adm != nil && g.adm.base == g
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
// IO lists, the index and the order; none of those may be written. It
// owns a copy of every Tensor struct, because rebatching, dtype
// conversion and shape inference write shapes and data types, and a
// copy of each graph input's shape, which rebatching writes in place.
// View panics on a graph that was never admitted.
func (g *Graph) View() *Graph {
	a := g.adm
	if a == nil {
		panic("graph: View of graph " + g.Name + ", which was not admitted")
	}
	base := a.base
	v := &Graph{
		Name: base.Name, Nodes: base.Nodes, Inputs: base.Inputs, Outputs: base.Outputs,
		Tensors: make(map[string]*Tensor, len(base.Tensors)),
		idx:     base.idx,
		adm:     a,
	}
	copies := make([]Tensor, len(base.Tensors))
	i := 0
	for name, t := range base.Tensors {
		copies[i] = *t
		v.Tensors[name] = &copies[i]
		i++
	}
	for _, in := range base.Inputs {
		t := v.Tensors[in]
		t.Shape = t.Shape.Clone()
	}
	return v
}
