package backend

import (
	"fmt"

	"proof/internal/analysis"
	"proof/internal/graph"
)

// NodesByName resolves original node names (a runtime's fused-name list)
// against the model graph.
func NodesByName(opt *analysis.OptimizedRep, names []string) ([]*graph.Node, error) {
	g := opt.Base.Graph
	nodes := make([]*graph.Node, 0, len(names))
	for _, name := range names {
		n := g.Node(name)
		if n == nil {
			return nil, fmt.Errorf("backend: layer references unknown node %q", name)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// FuseMapped records a mapped backend layer in the optimized
// representation: multi-node sets become fused operators; single nodes
// stay plain layers.
func FuseMapped(opt *analysis.OptimizedRep, layerName string, nodes []*graph.Node) (*analysis.Layer, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("backend: layer %q maps to no nodes", layerName)
	}
	if len(nodes) == 1 {
		return &analysis.Layer{Node: nodes[0]}, nil
	}
	f, err := opt.SetFusedOp(layerName, nodes)
	if err != nil {
		return nil, fmt.Errorf("backend: fusing mapped layer %q: %w", layerName, err)
	}
	return &analysis.Layer{Fused: f}, nil
}

// MapByIO is the io-tensor mapping strategy shared by ortsim and the
// Myelin fallback: register aliases from reformat layers, then recover
// every layer's node set with a boundary-tensor subgraph search.
func MapByIO(e *Engine, opt *analysis.OptimizedRep) (Mapping, error) {
	layers := e.Layers()
	m := make(Mapping, len(layers))
	for _, l := range layers {
		if l.IsReformat {
			opt.SetTensorAlias(l.OutputTensors[0], l.InputTensors[0])
		}
	}
	for i, l := range layers {
		if l.IsReformat {
			continue
		}
		nodes, err := opt.GetSubgraphOpsByIO(l.InputTensors, l.OutputTensors)
		if err != nil {
			return nil, fmt.Errorf("backend %s: mapping layer %q by io: %w", e.BackendName(), l.Name, err)
		}
		layer, err := FuseMapped(opt, l.Name, nodes)
		if err != nil {
			return nil, err
		}
		m[i] = layer
	}
	return m, nil
}
