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
	"fmt"
	"strconv"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
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

// ortInfo names a layer [fused_]<op>_<idx> after its anchor's op type,
// or its first node's, lowercased. Shape inference admits only ASCII op
// types, so lowercasing ASCII letters is strings.ToLower.
//
//lint:hotpath
func ortInfo(text []byte, nodes []string, idx int, gr *backend.Group) ([]byte, []string, backend.Layer) {
	kind := "op"
	if gr.Anchor != nil {
		kind = gr.Anchor.OpType
	} else if len(gr.Nodes) > 0 {
		kind = gr.Nodes[0].OpType
	}
	if len(gr.Nodes) > 1 {
		text = append(text, "fused_"...)
	}
	at := len(text)
	text = append(text, kind...)
	for i := at; i < len(text); i++ {
		if c := text[i]; 'A' <= c && c <= 'Z' {
			text[i] = c + 'a' - 'A'
		}
	}
	text = append(text, '_')
	return strconv.AppendInt(text, int64(idx), 10), nodes, backend.Layer{}
}

// ortReorders inserts a reorder layer before each convolution group
// whose data input is produced by a non-convolution group (or is a
// graph input): the oneDNN blocked-layout conversion of Figure 2's
// reorder_1. One pass counts the reorders and the next lists them.
func ortReorders(rep *analysis.Rep, groups []backend.Group) []backend.ReformatSpec {
	g := rep.Graph
	groupOf := make([]*backend.Group, rep.NodeCount()) // by topological position
	for i := range groups {
		for _, n := range groups[i].Nodes {
			groupOf[g.Pos(n)] = &groups[i]
		}
	}
	isConvGroup := func(gr *backend.Group) bool {
		return gr != nil && gr.Anchor != nil &&
			(gr.Anchor.OpType == "Conv" || gr.Anchor.OpType == "ConvTranspose")
	}
	seen := map[string]bool{}
	reorders := func(emit func(group int, tensor string)) {
		clear(seen)
		for i := range groups {
			gr := &groups[i]
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
			emit(i, t)
		}
	}
	n := 0
	reorders(func(int, string) { n++ })
	specs := make([]backend.ReformatSpec, 0, n)
	reorders(func(group int, tensor string) {
		specs = append(specs, backend.ReformatSpec{
			BeforeGroup: group,
			Tensor:      tensor,
			AliasSuffix: "_r",
			Prefix:      "reorder_",
			Index:       len(specs) + 1,
		})
	})
	return specs
}

// MapLayers implements PRoof's ONNX Runtime mapping strategy — exactly
// the Figure 2 flow: reorder layers become tensor aliases, and each
// fused layer's node set is recovered by get_subgraph_ops_by_io.
func (o ONNXRuntime) MapLayers(ctx context.Context, e *backend.Engine, opt *analysis.OptimizedRep) (backend.Mapping, error) {
	_, sp := obs.Start(ctx, "map_layers")
	sp.SetAttr("backend", o.Name())
	m, err := backend.MapNodes(e, opt, func(dst []*graph.Node, l *backend.Layer) ([]*graph.Node, error) {
		dst, err := opt.GetSubgraphOpsByIO(dst, l.InputTensors, l.OutputTensors)
		if err != nil {
			return dst, fmt.Errorf("backend %s: mapping layer %q by io: %w", o.Name(), l.Name, err)
		}
		return dst, nil
	})
	sp.SetAttrInt("layers", int64(len(m)))
	sp.EndErr(err)
	return m, err
}
