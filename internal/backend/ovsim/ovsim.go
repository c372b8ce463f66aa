// Package ovsim simulates an OpenVINO-like inference runtime:
// conservative convolution+activation fusion and Convert layers after
// graph inputs. Like OpenVINO's execution graph (whose layers carry the
// ORIGINAL_LAYER_NAMES runtime attribute), every backend layer exposes
// the full list of original node names it fuses — the easiest mapping
// regime.
package ovsim

import (
	"context"
	"fmt"
	"slices"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/obs"
)

// OpenVINO is the simulated OpenVINO backend.
type OpenVINO struct{}

// New returns the backend.
func New() backend.Backend { return OpenVINO{} }

func init() { backend.Register(New()) }

// Name returns "ovsim".
func (OpenVINO) Name() string { return "ovsim" }

var rules = backend.FusionRules{
	AbsorbOps: map[string]bool{
		"Relu": true, "Clip": true, "Sigmoid": true, "Tanh": true,
		"Add": true, "BatchNormalization": true, "HardSwish": true,
		"HardSigmoid": true, "LeakyRelu": true,
	},
	AbsorbSiLU: true,
}

// Build optimizes the model OpenVINO-style.
func (o OpenVINO) Build(ctx context.Context, rep *analysis.Rep, cfg backend.Config) (*backend.Engine, error) {
	spec := backend.BuildSpec{
		BackendName: o.Name(),
		Rules:       rules,
		Info:        ovInfo,
		Reformats:   ovReformats,
	}
	return backend.BuildEngine(ctx, spec, rep, cfg)
}

// ovInfo names a layer after its anchor, or its first node, and exposes
// every node it fuses.
//
//lint:hotpath
func ovInfo(text []byte, nodes []string, idx int, gr *backend.Group) ([]byte, []string, backend.Layer) {
	name := gr.Nodes[0].Name
	if gr.Anchor != nil {
		name = gr.Anchor.Name
	}
	at := len(nodes)
	nodes = slices.Grow(nodes, len(gr.Nodes))[:at+len(gr.Nodes)]
	for i, n := range gr.Nodes {
		nodes[at+i] = n.Name
	}
	return text, nodes, backend.Layer{Name: name}
}

func ovReformats(rep *analysis.Rep, groups []backend.Group) []backend.ReformatSpec {
	specs := make([]backend.ReformatSpec, len(rep.Graph.Inputs))
	for i, in := range rep.Graph.Inputs {
		specs[i] = backend.ReformatSpec{
			BeforeGroup: 0,
			Tensor:      in,
			AliasSuffix: "_cvt",
			Prefix:      "Convert_",
			Index:       i,
		}
	}
	return specs
}

// MapLayers implements PRoof's OpenVINO mapping strategy: Convert layers
// register aliases; every other layer directly names its original nodes.
func (o OpenVINO) MapLayers(ctx context.Context, e *backend.Engine, opt *analysis.OptimizedRep) (backend.Mapping, error) {
	_, sp := obs.Start(ctx, "map_layers")
	sp.SetAttr("backend", o.Name())
	m, err := o.mapLayers(e, opt)
	sp.SetAttrInt("layers", int64(len(m)))
	sp.EndErr(err)
	return m, err
}

func (OpenVINO) mapLayers(e *backend.Engine, opt *analysis.OptimizedRep) (backend.Mapping, error) {
	return backend.MapNodes(e, opt, func(dst []*graph.Node, l *backend.Layer) ([]*graph.Node, error) {
		dst, err := backend.NodesByName(dst, opt, l.FusedNodeNames)
		if err != nil {
			return dst, fmt.Errorf("ovsim: mapping %q: %w", l.Name, err)
		}
		return dst, nil
	})
}
