// Package ortsim simulates an ONNX-Runtime-like inference runtime:
// conservative fusion (Conv+activation, MatMul+bias, the erf GELU
// pattern), plus reorder layers inserted before convolution groups whose
// producer is not itself a convolution (oneDNN blocked-layout
// conversions). Backend layers carry opaque generated names and expose
// only boundary tensor names — possibly aliased by the reorders — so
// PRoof's mapping must use the Figure 2 strategy: set_tensor_alias for
// reorders, then get_subgraph_ops_by_io + set_fused_op per layer.
package ortsim

import (
	"context"
	"strconv"
	"strings"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/obs"
)

// ONNXRuntime is the simulated ONNX Runtime backend.
type ONNXRuntime struct{}

// New returns the backend.
func New() backend.Backend { return ONNXRuntime{} }

func init() { backend.Register(New()) }

// Name returns "ortsim".
func (ONNXRuntime) Name() string { return "ortsim" }

var rules = backend.FusionRules{
	AbsorbOps: map[string]bool{
		"Relu": true, "Clip": true, "Add": true,
		"BatchNormalization": true, "HardSwish": true, "HardSigmoid": true,
	},
	AbsorbGelu: true,
}

// Build optimizes the model ONNX-Runtime-style.
func (o ONNXRuntime) Build(ctx context.Context, rep *analysis.Rep, cfg backend.Config) (*backend.Engine, error) {
	spec := backend.BuildSpec{
		BackendName: o.Name(),
		Rules:       rules,
		Info:        ortInfo,
		Reformats:   ortReorders,
	}
	return backend.BuildEngine(ctx, spec, rep, cfg)
}

func ortInfo(idx int, gr *backend.Group, truth *analysis.Layer, alias map[string]string) backend.Layer {
	ins, outs := backend.BoundaryIO(truth, alias)
	kind := "op"
	if gr.Anchor != nil {
		kind = strings.ToLower(gr.Anchor.OpType)
	} else if len(gr.Nodes) > 0 {
		kind = strings.ToLower(gr.Nodes[0].OpType)
	}
	prefix := ""
	if len(gr.Nodes) > 1 {
		prefix = "fused_"
	}
	return backend.Layer{
		Name:          prefix + kind + "_" + strconv.Itoa(idx),
		InputTensors:  ins,
		OutputTensors: outs,
	}
}

// ortReorders inserts a reorder layer before each convolution group
// whose data input is produced by a non-convolution group (or is a
// graph input): the oneDNN blocked-layout conversion of Figure 2's
// reorder_1.
func ortReorders(rep *analysis.Rep, groups []*backend.Group) []backend.ReformatSpec {
	g := rep.Graph
	groupOf := make([]*backend.Group, rep.NodeCount()) // by topological position
	for _, gr := range groups {
		for _, n := range gr.Nodes {
			groupOf[g.Pos(n)] = gr
		}
	}
	isConvGroup := func(gr *backend.Group) bool {
		return gr != nil && gr.Anchor != nil &&
			(gr.Anchor.OpType == "Conv" || gr.Anchor.OpType == "ConvTranspose")
	}
	var specs []backend.ReformatSpec
	seen := map[string]bool{}
	idx := 0
	for i, gr := range groups {
		if !isConvGroup(gr) {
			continue
		}
		t := gr.Anchor.Inputs[0]
		if seen[t] {
			continue
		}
		prod := g.InProducer(gr.Anchor, 0)
		if prod != nil && isConvGroup(groupOf[g.Pos(prod)]) {
			continue
		}
		seen[t] = true
		idx++
		specs = append(specs, backend.ReformatSpec{
			BeforeGroup: i,
			Tensor:      t,
			Alias:       t + "_r",
			Name:        "reorder_" + strconv.Itoa(idx),
		})
	}
	return specs
}

// MapLayers implements PRoof's ONNX Runtime mapping strategy — exactly
// the Figure 2 flow: reorder layers become tensor aliases, and each
// fused layer's node set is recovered by get_subgraph_ops_by_io.
func (o ONNXRuntime) MapLayers(ctx context.Context, e *backend.Engine, opt *analysis.OptimizedRep) (backend.Mapping, error) {
	_, sp := obs.Start(ctx, "map_layers")
	sp.SetAttr("backend", o.Name())
	m, err := backend.MapByIO(e, opt)
	sp.SetAttrInt("layers", int64(len(m)))
	sp.EndErr(err)
	return m, err
}
