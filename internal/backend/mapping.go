package backend

import (
	"fmt"

	"proof/internal/analysis"
	"proof/internal/graph"
)

// NodesByName appends the nodes a runtime's fused-name list names,
// resolved against the model graph, to dst and returns the extended
// list.
func NodesByName(dst []*graph.Node, opt *analysis.OptimizedRep, names []string) ([]*graph.Node, error) {
	g := opt.Base.Graph
	for _, name := range names {
		n := g.Node(name)
		if n == nil {
			return dst, fmt.Errorf("backend: layer references unknown node %q", name)
		}
		dst = append(dst, n)
	}
	return dst, nil
}

// MapNodes builds a Mapping from the engine's public layer info: it
// registers every reformat layer's output as an alias of its input,
// recovers each other layer's nodes with nodesOf, the runtime's mapping
// strategy, which appends them to dst in topological order, and records
// the layer in opt: a multi-node set as a fused operator, a single node
// as a plain layer. It works in two passes so that it allocates per
// run, not per layer: the first recovers every layer's nodes into one
// array, sized by the graph's node count, which a mapping that
// partitions the graph fills exactly; the second fuses the multi-node
// sets, taking their fused operators from one array sized by their
// count.
func MapNodes(e *Engine, opt *analysis.OptimizedRep, nodesOf func(dst []*graph.Node, l *Layer) ([]*graph.Node, error)) (Mapping, error) {
	layers := e.Layers()
	for _, l := range layers {
		if l.IsReformat {
			opt.SetTensorAlias(l.OutputTensors[0], l.InputTensors[0])
		}
	}
	all := make([]*graph.Node, 0, opt.Base.NodeCount())
	ends := make([]int, len(layers))
	fused := 0
	for i := range layers {
		l := &layers[i]
		start := len(all)
		if !l.IsReformat {
			var err error
			if all, err = nodesOf(all, l); err != nil {
				return nil, err
			}
			switch len(all) - start {
			case 0:
				return nil, fmt.Errorf("backend: layer %q maps to no nodes", l.Name)
			case 1:
			default:
				fused++
			}
		}
		ends[i] = len(all)
	}
	ops := make([]analysis.FusedOp, fused)
	mapped := make([]analysis.Layer, len(layers))
	m := make(Mapping, len(layers))
	start := 0
	for i, end := range ends {
		nodes := all[start:end:end]
		start = end
		switch len(nodes) {
		case 0:
			continue // a reformat maps to no layer
		case 1:
			mapped[i].Node = nodes[0]
		default:
			f := &ops[0]
			ops = ops[1:]
			if err := opt.SetFusedOp(f, layers[i].Name, nodes); err != nil {
				return nil, fmt.Errorf("backend: fusing mapped layer %q: %w", layers[i].Name, err)
			}
			mapped[i].Fused = f
		}
		m[i] = &mapped[i]
	}
	return m, nil
}
