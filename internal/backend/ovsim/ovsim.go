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
	"strconv"

	"proof/internal/analysis"
	"proof/internal/backend"
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

func ovInfo(idx int, gr *backend.Group, truth *analysis.Layer, alias map[string]string) backend.Layer {
	ins, outs := backend.BoundaryIO(truth, alias)
	name := gr.Nodes[0].Name
	if gr.Anchor != nil {
		name = gr.Anchor.Name
	}
	names := make([]string, 0, len(gr.Nodes))
	for _, n := range gr.Nodes {
		names = append(names, n.Name)
	}
	return backend.Layer{
		Name:           name,
		FusedNodeNames: names,
		InputTensors:   ins,
		OutputTensors:  outs,
	}
}

func ovReformats(rep *analysis.Rep, groups []*backend.Group) []backend.ReformatSpec {
	var specs []backend.ReformatSpec
	for i, in := range rep.Graph.Inputs {
		specs = append(specs, backend.ReformatSpec{
			BeforeGroup: 0,
			Tensor:      in,
			Alias:       in + "_cvt",
			Name:        "Convert_" + strconv.Itoa(i),
		})
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
	layers := e.Layers()
	m := make(backend.Mapping, len(layers))
	for i, l := range layers {
		if l.IsReformat {
			opt.SetTensorAlias(l.OutputTensors[0], l.InputTensors[0])
			continue
		}
		nodes, err := backend.NodesByName(opt, l.FusedNodeNames)
		if err != nil {
			return nil, fmt.Errorf("ovsim: mapping %q: %w", l.Name, err)
		}
		layer, err := backend.FuseMapped(opt, l.Name, nodes)
		if err != nil {
			return nil, err
		}
		m[i] = layer
	}
	return m, nil
}
