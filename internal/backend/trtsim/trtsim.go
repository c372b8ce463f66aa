// Package trtsim simulates a TensorRT-like inference runtime: aggressive
// convolution-chain fusion, pointwise fusion, Myelin-style opaque
// transformer regions ("{ForeignNode[...]}"), and Reformat layers around
// graph inputs/outputs. Non-Myelin layer names concatenate the original
// node names with " + " — exactly the naming TensorRT produces — which
// is the mapping information PRoof's TensorRT strategy parses. Myelin
// regions expose no node names; mapping falls back to boundary-tensor
// subgraph search through the reformat aliases (§3.3's "guess the
// missing information based on the computational graph and data
// dependencies").
package trtsim

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/obs"
)

// TensorRT is the simulated TensorRT backend.
type TensorRT struct{}

// New returns the backend.
func New() backend.Backend { return TensorRT{} }

func init() { backend.Register(New()) }

// Name returns "trtsim".
func (TensorRT) Name() string { return "trtsim" }

var rules = backend.FusionRules{
	AbsorbOps: map[string]bool{
		"Relu": true, "Clip": true, "Sigmoid": true, "Tanh": true,
		"Add": true, "Mul": true, "BatchNormalization": true,
		"HardSwish": true, "HardSigmoid": true, "LeakyRelu": true,
	},
	AbsorbSiLU:    true,
	AbsorbGelu:    true,
	Myelin:        true,
	PointwiseRuns: true,
}

// Build optimizes the model TensorRT-style and returns the engine.
func (t TensorRT) Build(ctx context.Context, rep *analysis.Rep, cfg backend.Config) (*backend.Engine, error) {
	spec := backend.BuildSpec{
		BackendName: t.Name(),
		Rules:       rules,
		Info:        trtInfo,
		Reformats:   trtReformats,
	}
	return backend.BuildEngine(ctx, spec, rep, cfg)
}

func trtInfo(idx int, gr *backend.Group, truth *analysis.Layer, alias map[string]string) backend.Layer {
	ins, outs := backend.BoundaryIO(truth, alias)
	if gr.Kind == backend.KindMyelin {
		return backend.Layer{
			Name:          "{ForeignNode[myelin_region_" + strconv.Itoa(idx) + "]}",
			Opaque:        true,
			InputTensors:  ins,
			OutputTensors: outs,
		}
	}
	names := make([]string, 0, len(gr.Nodes))
	for _, n := range gr.Nodes {
		names = append(names, n.Name)
	}
	return backend.Layer{
		Name:          strings.Join(names, graph.LayerNameSep),
		InputTensors:  ins,
		OutputTensors: outs,
	}
}

func trtReformats(rep *analysis.Rep, groups []*backend.Group) []backend.ReformatSpec {
	var specs []backend.ReformatSpec
	for i, in := range rep.Graph.Inputs {
		specs = append(specs, backend.ReformatSpec{
			BeforeGroup: 0,
			Tensor:      in,
			Alias:       in + "_rf",
			Name:        "Reformat_input_" + strconv.Itoa(i),
		})
	}
	for i, out := range rep.Graph.Outputs {
		specs = append(specs, backend.ReformatSpec{
			BeforeGroup: len(groups),
			Tensor:      out,
			Alias:       out + "_rf",
			Name:        "Reformat_output_" + strconv.Itoa(i),
		})
	}
	return specs
}

// MapLayers implements PRoof's TensorRT mapping strategy: reformat
// layers register tensor aliases; named layers are parsed back into
// original node sets; opaque Myelin regions are recovered by searching
// the computational graph between their boundary tensors.
func (t TensorRT) MapLayers(ctx context.Context, e *backend.Engine, opt *analysis.OptimizedRep) (backend.Mapping, error) {
	_, sp := obs.Start(ctx, "map_layers")
	sp.SetAttr("backend", t.Name())
	m, opaque, err := t.mapLayers(e, opt)
	sp.SetAttrInt("layers", int64(len(m)))
	sp.SetAttrInt("opaque_regions", opaque)
	sp.EndErr(err)
	return m, err
}

func (TensorRT) mapLayers(e *backend.Engine, opt *analysis.OptimizedRep) (backend.Mapping, int64, error) {
	var opaque int64
	var cuts []int
	layers := e.Layers()
	m := make(backend.Mapping, len(layers))
	for _, l := range layers {
		if l.IsReformat {
			opt.SetTensorAlias(l.OutputTensors[0], l.InputTensors[0])
		}
	}
	for i, l := range layers {
		if l.IsReformat {
			continue
		}
		if l.Opaque {
			opaque++
			nodes, err := opt.GetSubgraphOpsByIO(l.InputTensors, l.OutputTensors)
			if err != nil {
				return nil, opaque, fmt.Errorf("trtsim: mapping opaque region %q: %w", l.Name, err)
			}
			f, err := opt.SetFusedOp(l.Name, nodes)
			if err != nil {
				return nil, opaque, fmt.Errorf("trtsim: fusing %q: %w", l.Name, err)
			}
			m[i] = &analysis.Layer{Fused: f}
			continue
		}
		cuts = graph.NameSeps(l.Name, cuts[:0])
		nodes, err := layerNodes(opt.Base.Graph, l.Name, cuts)
		if err != nil {
			return nil, opaque, fmt.Errorf("trtsim: mapping %q: %w", l.Name, err)
		}
		layer, err := backend.FuseMapped(opt, l.Name, nodes)
		if err != nil {
			return nil, opaque, err
		}
		m[i] = layer
	}
	return m, opaque, nil
}

// layerNodes resolves a named layer to its nodes. The name joins them
// with graph.LayerNameSep, whose occurrences cuts lists, and a node
// name may itself hold up to graph.MaxNameSeps of them, so the name
// splits only at separators whose segments all resolve through the
// graph's name table. A name that splits more than one way is a defect
// of the graph.
func layerNodes(g *graph.Graph, name string, cuts []int) ([]*graph.Node, error) {
	// Suffix k starts the name (k == 0) or follows cut k-1. ways[k]
	// counts its splits, up to 2, and end[k] is the cut ending its first
	// segment in the split found (len(cuts) for the end of the name).
	n := len(cuts) + 1
	dp := make([]int, 2*n)
	ways, end := dp[:n], dp[n:]
	for k := n - 1; k >= 0; k-- {
		start := 0
		if k > 0 {
			start = cuts[k-1] + len(graph.LayerNameSep)
		}
		first := k
		for first < len(cuts) && cuts[first] < start {
			first++ // a cut overlapping the previous separator
		}
		// A segment ending at cut c holds every cut from first to c but
		// the one before c when that overlaps c, so a node name ends
		// no later than cut first+MaxNameSeps+1.
		for c := first; c <= min(first+graph.MaxNameSeps+1, len(cuts)); c++ {
			stop, rest := len(name), 1
			if c < len(cuts) {
				stop, rest = cuts[c], ways[c+1]
			}
			if rest == 0 || g.Node(name[start:stop]) == nil {
				continue
			}
			if ways[k] == 0 {
				end[k] = c
			}
			ways[k] = min(ways[k]+rest, 2)
		}
	}
	switch ways[0] {
	case 0:
		return nil, fmt.Errorf("backend: layer %q does not split into node names", name)
	case 2:
		return nil, &graph.ValidationError{
			Code: graph.ErrAmbiguousNodeNames, Graph: g.Name,
			Detail: fmt.Sprintf("layer %q splits into node names more than one way", name),
		}
	}
	nodes := make([]*graph.Node, 0, n)
	for k, start := 0, 0; ; {
		c := end[k]
		if c == len(cuts) {
			return append(nodes, g.Node(name[start:])), nil
		}
		nodes = append(nodes, g.Node(name[start:cuts[c]]))
		k, start = c+1, cuts[c]+len(graph.LayerNameSep)
	}
}
