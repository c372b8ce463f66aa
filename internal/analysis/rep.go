package analysis

import (
	"fmt"

	"proof/internal/graph"
)

// Rep is the Analyze Representation (§3.2.2): the model graph plus the
// per-node predicted costs from the operator defines.
type Rep struct {
	// Graph is the analyzed model, admitted: a view of an admitted
	// graph, or the admission of a raw graph. Shapes are inferred.
	Graph *graph.Graph
	// order is the admitted topological order. Per-run state — costs
	// here, fused ownership in OptimizedRep, claims in backend fusion —
	// is addressed by a node's index in it, graph.Graph.Pos.
	order []*graph.Node
	// costs holds each node's predicted cost, by position.
	costs []Cost
}

// NewRep builds the Analyze Representation for a graph: runs shape
// inference and evaluates every node's operator define. A view of an
// admitted graph (graph.Admit) was validated and sorted at admission,
// so it is neither validated nor sorted again, and an admitted graph is
// analyzed through a fresh view, so the shared graph is never written.
// A raw graph is admitted here, which verifies it, and analyzed as
// admitted: its tensors are shared, so shape inference writes the raw
// graph's shapes, as it always has.
func NewRep(g *graph.Graph) (*Rep, error) {
	g, err := runGraph(g)
	if err != nil {
		return nil, err
	}
	return analyze(g)
}

// analyze builds the Rep of g, an admitted graph runGraph returned.
func analyze(g *graph.Graph) (*Rep, error) {
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	order, _ := g.AdmittedOrder()
	r := &Rep{Graph: g, order: order, costs: make([]Cost, len(order))}
	var total Cost
	for _, n := range g.Nodes {
		c, err := NodeCost(n, g)
		if err != nil {
			return nil, err
		}
		r.costs[g.Pos(n)] = c
		total = total.Add(c)
	}
	// Every figure is non-negative, so once the nodes' total fits in
	// int64 so does any sum of node figures, such as a fused operator's
	// FLOP. Traffic summed from tensors instead (a fused operator's
	// boundary, a reformat) is checked where it is summed.
	if total.overflowed() {
		return nil, g.OverflowDefect("", "the model's total cost")
	}
	return r, nil
}

// NewRepWithBatch rebuilds the representation after setting the leading
// dimension of every graph input to batch. Int64 index inputs (e.g.
// token ids) are rebatched too. Like NewRep, it writes a view of an
// admitted graph, never the admitted graph, and a raw graph in place.
func NewRepWithBatch(g *graph.Graph, batch int) (*Rep, error) {
	if batch < 1 {
		return nil, fmt.Errorf("analysis: batch must be >= 1, got %d", batch)
	}
	g, err := runGraph(g)
	if err != nil {
		return nil, err
	}
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
	// Admission verified the graph at its own batch; an input's constant
	// int data may contradict the rebatched shape.
	if err := g.ValidateInputData(); err != nil {
		return nil, err
	}
	return analyze(g)
}

// runGraph returns the admitted graph a Rep may write: a fresh view of
// an admitted graph, g itself when it is a view, and a raw g admitted,
// which shares g's tensors. Admitting a raw graph verifies it, and its
// first defect is the error.
func runGraph(g *graph.Graph) (*graph.Graph, error) {
	if g.Admitted() {
		return g.View(), nil
	}
	if _, ok := g.AdmittedOrder(); ok {
		return g, nil
	}
	a, errs := graph.Admit(g)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return a, nil
}

// Cost returns the predicted cost of a node of the graph; ok is false
// for a node outside it.
//
//lint:hotpath
func (r *Rep) Cost(n *graph.Node) (c Cost, ok bool) {
	i := r.Graph.Pos(n)
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

// Nodes returns the nodes in topological order; a node's index in it is
// Graph.Pos.
func (r *Rep) Nodes() []*graph.Node { return r.order }

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
