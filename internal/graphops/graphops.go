// Package graphops provides model-graph transformation passes of the
// kind DNN inference runtimes apply before backend-specific fusion:
// identity elimination, dead-node elimination, and constant folding of
// shape-computation chains. PRoof applies them to imported models (the
// CLI's -optimize flag) so that hand-written or exported graphs enter
// analysis in the same canonical form the zoo builders produce.
package graphops

import (
	"fmt"
	"slices"

	"proof/internal/graph"
	"proof/internal/sim"
)

// EliminateIdentity removes Identity and (inference-mode) Dropout nodes,
// rewiring their consumers to the producer tensor. Graph outputs
// produced by eliminated nodes keep their name via an alias rewrite of
// the producer's output.
func EliminateIdentity(g *graph.Graph) int {
	removed := 0
	for {
		idx := -1
		for i, n := range g.Nodes {
			if (n.OpType == "Identity" || n.OpType == "Dropout") &&
				len(n.Inputs) >= 1 && len(n.Outputs) == 1 {
				idx = i
				break
			}
		}
		if idx < 0 {
			return removed
		}
		n := g.Nodes[idx]
		src, dst := n.Inputs[0], n.Outputs[0]
		// Rewire consumers of dst to src.
		for _, c := range g.Nodes {
			for j, in := range c.Inputs {
				if in == dst {
					c.Inputs[j] = src
				}
			}
		}
		// Keep graph-output names stable: if dst is a graph output,
		// rename src's role instead.
		for j, out := range g.Outputs {
			if out == dst {
				g.Outputs[j] = src
			}
		}
		delete(g.Tensors, dst)
		g.Nodes = append(g.Nodes[:idx], g.Nodes[idx+1:]...)
		removed++
	}
}

// EliminateDeadNodes removes nodes whose outputs cannot reach any graph
// output, together with their now-unreferenced intermediate tensors.
// Returns the number of nodes removed.
func EliminateDeadNodes(g *graph.Graph) int {
	live := map[string]bool{}
	var stack []string
	for _, out := range g.Outputs {
		stack = append(stack, out)
	}
	producer := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		for _, o := range n.Outputs {
			producer[o] = n
		}
	}
	seen := map[string]bool{}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[t] {
			continue
		}
		seen[t] = true
		prod := producer[t]
		if prod == nil {
			continue
		}
		live[prod.Name] = true
		for _, in := range prod.Inputs {
			stack = append(stack, in)
		}
	}
	var kept []*graph.Node
	removed := 0
	referenced := map[string]bool{}
	for _, n := range g.Nodes {
		if live[n.Name] {
			kept = append(kept, n)
			for _, t := range append(append([]string{}, n.Inputs...), n.Outputs...) {
				referenced[t] = true
			}
			continue
		}
		removed++
	}
	if removed == 0 {
		return 0
	}
	for _, in := range g.Inputs {
		referenced[in] = true
	}
	for _, out := range g.Outputs {
		referenced[out] = true
	}
	for name, t := range g.Tensors {
		if t.Param || referenced[name] {
			continue
		}
		delete(g.Tensors, name)
	}
	g.Nodes = kept
	return removed
}

// FoldConstants replaces the nodes whose value shape inference knows
// (graph.KnownValues) with initializer tensors carrying that value, and
// returns the number of nodes folded. A node folds when no graph input
// reaches it, its one output is not a graph output, and it is a Shape or
// Constant or its output is a small integer shape value
// (sim.IsShapeValue). A value a graph input reaches may hold the batch
// size, and baking it in would break re-batching (runtimes fold those
// only at engine build time, when the batch is fixed).
//
// Folding is what real runtimes do at build time; after this pass, the
// only remaining nodes are ones that move or compute tensor data.
func FoldConstants(g *graph.Graph) (int, error) {
	values, err := g.KnownValues()
	if err != nil {
		return 0, fmt.Errorf("graphops: shape inference before folding: %w", err)
	}
	consumers := map[string][]*graph.Node{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumers[in] = append(consumers[in], n)
		}
	}
	reached := map[string]bool{}
	for stack := slices.Clone(g.Inputs); len(stack) > 0; {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reached[t] {
			reached[t] = true
			for _, c := range consumers[t] {
				stack = append(stack, c.Outputs...)
			}
		}
	}
	folded := 0
	g.Nodes = slices.DeleteFunc(g.Nodes, func(n *graph.Node) bool {
		if len(n.Outputs) != 1 || reached[n.Outputs[0]] || slices.Contains(g.Outputs, n.Outputs[0]) {
			return false
		}
		v, known := values[n.Outputs[0]]
		t := g.Tensor(n.Outputs[0])
		if !known || n.OpType != "Shape" && n.OpType != "Constant" && !sim.IsShapeValue(t) {
			return false
		}
		t.Param, t.IntData = true, v
		folded++
		return true
	})
	return folded, nil
}

// Optimize applies the standard pass pipeline: identity elimination,
// constant folding, then dead-node elimination. Returns a summary of
// what was removed.
type OptimizeStats struct {
	// IdentityRemoved counts eliminated Identity/Dropout nodes.
	IdentityRemoved int
	// ConstantsFolded counts folded shape-chain nodes.
	ConstantsFolded int
	// DeadRemoved counts dead nodes eliminated.
	DeadRemoved int
}

// Optimize runs the full pipeline in place.
func Optimize(g *graph.Graph) (OptimizeStats, error) {
	var stats OptimizeStats
	stats.IdentityRemoved = EliminateIdentity(g)
	folded, err := FoldConstants(g)
	if err != nil {
		return stats, err
	}
	stats.ConstantsFolded = folded
	stats.DeadRemoved = EliminateDeadNodes(g)
	if err := g.Validate(); err != nil {
		return stats, fmt.Errorf("graphops: graph invalid after optimization: %w", err)
	}
	return stats, nil
}
