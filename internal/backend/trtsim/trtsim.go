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
	"slices"
	"strconv"

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

// trtInfo names a Myelin region {ForeignNode[myelin_region_<idx>]},
// exposing no node names, and any other layer by its nodes' names
// joined with graph.LayerNameSep.
//
//lint:hotpath
func trtInfo(text []byte, nodes []string, idx int, gr *backend.Group) ([]byte, []string, backend.Layer) {
	if gr.Kind == backend.KindMyelin {
		text = append(text, "{ForeignNode[myelin_region_"...)
		text = strconv.AppendInt(text, int64(idx), 10)
		return append(text, "]}"...), nodes, backend.Layer{Opaque: true}
	}
	if len(gr.Nodes) == 1 {
		return text, nodes, backend.Layer{Name: gr.Nodes[0].Name}
	}
	size := len(graph.LayerNameSep) * (len(gr.Nodes) - 1)
	for _, n := range gr.Nodes {
		size += len(n.Name)
	}
	at := len(text)
	text = slices.Grow(text, size)[:at+size]
	for i, n := range gr.Nodes {
		if i > 0 {
			at += copy(text[at:], graph.LayerNameSep)
		}
		at += copy(text[at:], n.Name)
	}
	return text, nodes, backend.Layer{}
}

func trtReformats(rep *analysis.Rep, groups []backend.Group) []backend.ReformatSpec {
	ins, outs := rep.Graph.Inputs, rep.Graph.Outputs
	specs := make([]backend.ReformatSpec, len(ins)+len(outs))
	for i, in := range ins {
		specs[i] = backend.ReformatSpec{
			BeforeGroup: 0,
			Tensor:      in,
			AliasSuffix: "_rf",
			Prefix:      "Reformat_input_",
			Index:       i,
		}
	}
	for i, out := range outs {
		specs[len(ins)+i] = backend.ReformatSpec{
			BeforeGroup: len(groups),
			Tensor:      out,
			AliasSuffix: "_rf",
			Prefix:      "Reformat_output_",
			Index:       i,
		}
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
	var cutBuf [8]int
	cuts := cutBuf[:0]
	m, err := backend.MapNodes(e, opt, func(dst []*graph.Node, l *backend.Layer) ([]*graph.Node, error) {
		if l.Opaque {
			opaque++
			dst, err := opt.GetSubgraphOpsByIO(dst, l.InputTensors, l.OutputTensors)
			if err != nil {
				return dst, fmt.Errorf("trtsim: mapping opaque region %q: %w", l.Name, err)
			}
			return dst, nil
		}
		cuts = graph.NameSeps(l.Name, cuts[:0])
		dst, err := layerNodes(dst, opt.Base.Graph, l.Name, cuts)
		if err != nil {
			return dst, fmt.Errorf("trtsim: mapping %q: %w", l.Name, err)
		}
		return dst, nil
	})
	return m, opaque, err
}

// layerNodes resolves a named layer to its nodes. The name joins them
// with graph.LayerNameSep, whose occurrences cuts lists, and a node
// name may itself hold up to graph.MaxNameSeps of them, so the name
// splits only at separators whose segments all resolve through the
// graph's name table. A name that splits more than one way is a defect
// of the graph.
func layerNodes(dst []*graph.Node, g *graph.Graph, name string, cuts []int) ([]*graph.Node, error) {
	// Suffix k starts the name (k == 0) or follows cut k-1. ways[k]
	// counts its splits, up to 2, and end[k] is the cut ending its first
	// segment in the split found (len(cuts) for the end of the name).
	// Names of up to sixteen nodes keep them on the stack.
	n := len(cuts) + 1
	var dpBuf [32]int
	dp := dpBuf[:]
	if 2*n > len(dpBuf) {
		dp = make([]int, 2*n)
	}
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
		return dst, fmt.Errorf("backend: layer %q does not split into node names", name)
	case 2:
		return dst, &graph.ValidationError{
			Code: graph.ErrAmbiguousNodeNames, Graph: g.Name,
			Detail: fmt.Sprintf("layer %q splits into node names more than one way", name),
		}
	}
	for k, start := 0, 0; ; {
		c := end[k]
		if c == len(cuts) {
			return append(dst, g.Node(name[start:])), nil
		}
		dst = append(dst, g.Node(name[start:cuts[c]]))
		k, start = c+1, cuts[c]+len(graph.LayerNameSep)
	}
}
