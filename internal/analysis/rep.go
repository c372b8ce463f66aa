package analysis

import (
	"fmt"
	"slices"

	"proof/internal/graph"
)

// Rep is the Analyze Representation (§3.2.2): the model graph plus the
// per-node predicted costs from the operator defines.
type Rep struct {
	// Graph is the analyzed model. Shapes are inferred.
	Graph *graph.Graph
	// order caches the topological node order; pos is its inverse,
	// each node's index in order. It is built once here, or once per
	// admitted graph and shared by the Reps of its views. Per-run
	// state — costs here, fused ownership in OptimizedRep, claims in
	// backend fusion — is addressed by that index.
	order []*graph.Node
	pos   map[*graph.Node]int
	// costs holds each node's predicted cost, by position.
	costs []Cost
}

// NewRep builds the Analyze Representation for a graph: validates it,
// runs shape inference, and evaluates every node's operator define. A
// view of an admitted graph (graph.Admit) was validated and sorted at
// admission, so it is neither validated nor sorted again: the Rep takes
// the admitted order. An admitted graph itself is analyzed through a
// fresh view, so the shared graph is never written.
func NewRep(g *graph.Graph) (*Rep, error) {
	g = runGraph(g)
	order, pos, admitted := g.AdmittedOrder()
	if !admitted {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	if !admitted {
		var err error
		if order, err = g.TopoSort(); err != nil {
			return nil, err
		}
		pos = make(map[*graph.Node]int, len(order))
		for i, n := range order {
			pos[n] = i
		}
	}
	r := &Rep{Graph: g, order: order, pos: pos, costs: make([]Cost, len(order))}
	for _, n := range g.Nodes {
		c, err := NodeCost(n, g)
		if err != nil {
			return nil, err
		}
		r.costs[pos[n]] = c
	}
	return r, nil
}

// NewRepWithBatch rebuilds the representation after setting the leading
// dimension of every graph input to batch. Int64 index inputs (e.g.
// token ids) are rebatched too. Like NewRep, it writes a view of an
// admitted graph, never the admitted graph.
func NewRepWithBatch(g *graph.Graph, batch int) (*Rep, error) {
	if batch < 1 {
		return nil, fmt.Errorf("analysis: batch must be >= 1, got %d", batch)
	}
	g = runGraph(g)
	for _, in := range g.Inputs {
		t := g.Tensor(in)
		if t == nil {
			return nil, fmt.Errorf("analysis: graph input %q not registered", in)
		}
		if t.Shape.Rank() == 0 {
			continue
		}
		t.Shape[0] = batch
	}
	// A view skips NewRep's validation, which an input's constant int
	// data may now contradict.
	if err := g.ValidateInputData(); err != nil {
		return nil, err
	}
	return NewRep(g)
}

// runGraph returns the graph a Rep may write: a fresh view of an
// admitted graph, or g itself.
func runGraph(g *graph.Graph) *graph.Graph {
	if g.Admitted() {
		return g.View()
	}
	return g
}

// Cost returns the predicted cost of a node of the graph; ok is false
// for a node outside it.
//
//lint:hotpath
func (r *Rep) Cost(n *graph.Node) (c Cost, ok bool) {
	i := r.TopoPos(n)
	if i < 0 {
		return Cost{}, false
	}
	return r.costs[i], true
}

// TotalCost returns the summed cost of all nodes — the model-level FLOP
// and memory prediction (Table 3's GFLOP column at batch 1).
func (r *Rep) TotalCost() Cost {
	var total Cost
	for _, c := range r.costs {
		total = total.Add(c)
	}
	return total
}

// Nodes returns the nodes in topological order.
func (r *Rep) Nodes() []*graph.Node { return r.order }

// TopoPos returns the node's index in Nodes(), or -1 for a node that
// is not in the graph.
//
//lint:hotpath
func (r *Rep) TopoPos(n *graph.Node) int {
	if i, ok := r.pos[n]; ok {
		return i
	}
	return -1
}

// SortTopo sorts nodes of the graph into topological order in place,
// looking each node's position up once. A node outside the graph sorts
// first.
func (r *Rep) SortTopo(nodes []*graph.Node) {
	type ranked struct {
		pos  int
		node *graph.Node
	}
	var stack [32]ranked
	rs := stack[:0]
	for _, n := range nodes {
		rs = append(rs, ranked{r.TopoPos(n), n})
	}
	slices.SortFunc(rs, func(a, b ranked) int { return a.pos - b.pos })
	for i, x := range rs {
		nodes[i] = x.node
	}
}

// NodeCount returns the number of operators in the model (Table 3's
// "ONNX Nodes" column).
func (r *Rep) NodeCount() int { return len(r.order) }

// BatchSize returns the leading dimension of the first graph input.
func (r *Rep) BatchSize() int {
	if len(r.Graph.Inputs) == 0 {
		return 1
	}
	t := r.Graph.Tensor(r.Graph.Inputs[0])
	if t == nil || t.Shape.Rank() == 0 {
		return 1
	}
	return t.Shape[0]
}
