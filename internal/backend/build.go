package backend

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/memo"
	"proof/internal/obs"
	"proof/internal/sim"
)

// ReformatSpec describes a runtime-inserted data conversion layer.
type ReformatSpec struct {
	// BeforeGroup is the index of the group the reformat precedes
	// (len(groups) = after the last group).
	BeforeGroup int
	// Tensor is the original tensor being converted.
	Tensor string
	// Alias is the runtime's name for the converted tensor.
	Alias string
	// Name is the reformat layer's name.
	Name string
}

// InfoFn produces the public Layer info for one fusion group, given the
// ground-truth layer and the accumulated tensor alias map. This is where
// each backend decides what it reveals.
type InfoFn func(idx int, gr *Group, truth *analysis.Layer, alias map[string]string) Layer

// ReformatFn decides where a backend inserts reformat/reorder layers.
type ReformatFn func(rep *analysis.Rep, groups []*Group) []ReformatSpec

// BuildSpec bundles a backend's pipeline configuration for BuildEngine.
type BuildSpec struct {
	// BackendName is the owning backend key.
	BackendName string
	// Rules is the fusion rule set.
	Rules FusionRules
	// Info produces public layer info.
	Info InfoFn
	// Reformats optionally inserts conversion layers (may be nil).
	Reformats ReformatFn
}

// BuildEngine runs the shared backend build pipeline: fuse the graph,
// derive the internal ground-truth optimized representation, insert
// reformats, compute per-layer simulation workloads and lowered kernels,
// and assemble the engine. The engine simulates cfg.Clocks as the
// platform resolves them. The fusion and assembly phases are recorded
// as "fuse" and "assemble" spans when ctx carries an obs tracer.
//
// The build sizes its lists from counts it has before it fills them:
// the ground-truth layers sit in one array, one per group, the fused
// groups' names in one string, and the kernels in one array, their
// names in another string (see lowerKernels).
func BuildEngine(ctx context.Context, spec BuildSpec, rep *analysis.Rep, cfg Config) (*Engine, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("backend: config requires a platform")
	}
	cfg.Clocks = cfg.Platform.ResolveClocks(cfg.Clocks)
	if !cfg.DType.Valid() {
		cfg.DType = cfg.Platform.DefaultDType
	}
	if cfg.Batch == 0 {
		cfg.Batch = rep.BatchSize()
	}

	_, fsp := obs.Start(ctx, "fuse")
	fsp.SetAttr("backend", spec.BackendName)
	groups := Fuse(rep, spec.Rules)
	internalOpt := analysis.NewOptimizedRep(rep)

	// Ground-truth layers per group. A fused group is named
	// <backend>_group_<index>, a substring of one string that holds
	// every such name.
	truths := make([]analysis.Layer, len(groups))
	var digits [20]byte
	size := 0
	for i, gr := range groups {
		if len(gr.Nodes) > 1 {
			size += len(spec.BackendName) + len("_group_") + len(strconv.AppendInt(digits[:0], int64(i), 10))
		}
	}
	var names strings.Builder
	names.Grow(size)
	for i, gr := range groups {
		if len(gr.Nodes) == 1 {
			truths[i].Node = gr.Nodes[0]
			continue
		}
		at := names.Len()
		names.WriteString(spec.BackendName)
		names.WriteString("_group_")
		names.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		f, err := internalOpt.SetFusedOp(names.String()[at:], gr.Nodes)
		if err != nil {
			err = fmt.Errorf("backend %s: fusing group %d: %w", spec.BackendName, i, err)
			fsp.EndErr(err)
			return nil, err
		}
		truths[i].Fused = f
	}
	fsp.SetAttrInt("groups", int64(len(groups)))
	fsp.End()

	_, asp := obs.Start(ctx, "assemble")
	defer asp.End()

	// Reformats are emitted in position order, in the order the runtime
	// listed them at each position; one whose position is outside
	// 0..len(groups) is never emitted.
	var reformats []ReformatSpec
	if spec.Reformats != nil {
		reformats = spec.Reformats(rep, groups)
	}
	slices.SortStableFunc(reformats, func(a, b ReformatSpec) int { return cmp.Compare(a.BeforeGroup, b.BeforeGroup) })
	nextReformat := 0

	n := len(groups) + len(reformats)
	e := &Engine{
		backendName: spec.BackendName,
		cfg:         cfg,
		rep:         rep,
		layers:      make([]Layer, 0, n),
		truths:      make([]*analysis.Layer, 0, n),
		works:       make([]sim.Work, 0, n),
	}
	alias := map[string]string{} // original tensor -> runtime alias
	var given []string           // every alias handed out, in order

	emitReformats := func(pos int) error {
		for ; nextReformat < len(reformats) && reformats[nextReformat].BeforeGroup <= pos; nextReformat++ {
			r := reformats[nextReformat]
			if r.BeforeGroup < pos {
				continue
			}
			t := rep.Graph.Tensor(r.Tensor)
			if t == nil {
				return fmt.Errorf("backend %s: reformat of unknown tensor %q", spec.BackendName, r.Tensor)
			}
			name := freeAlias(rep.Graph, r.Alias, given)
			given = append(given, name)
			alias[r.Tensor] = name
			bytes := graph.MulCount(2, t.Bytes())
			io := []string{r.Tensor, name}
			pub := Layer{
				Name:          r.Name,
				InputTensors:  io[:1:1],
				OutputTensors: io[1:],
				IsReformat:    true,
			}
			e.add(pub, nil, sim.Work{
				Name:  r.Name,
				Key:   memo.ReformatKey(t),
				Class: sim.ClassMemCopy,
				Bytes: bytes,
			})
		}
		return nil
	}

	for i, gr := range groups {
		if err := emitReformats(i); err != nil {
			return nil, err
		}
		truth := &truths[i]
		cost, err := internalOpt.LayerCost(truth)
		if err != nil {
			return nil, fmt.Errorf("backend %s: cost of group %d: %w", spec.BackendName, i, err)
		}
		pub := spec.Info(i, gr, truth, alias)
		hwFLOP := sim.HardwareFLOPForNodes(rep, gr.Nodes, cfg.Platform)
		if hwFLOP < 0 {
			return nil, rep.Graph.OverflowDefect("", fmt.Sprintf("the hardware FLOP of layer %q", pub.Name))
		}
		class := sim.ClassifyNodes(gr.Nodes, rep.Graph)
		work := sim.Work{
			Name:      pub.Name,
			Key:       memo.ContentKey(rep.Graph, gr.Nodes, groupKindKey(gr.Kind)),
			Class:     class,
			HWFLOP:    hwFLOP,
			ModelFLOP: cost.FLOP,
			Bytes:     cost.MemoryBytes(),
		}
		e.add(pub, truth, work)
	}
	if err := emitReformats(len(groups)); err != nil {
		return nil, err
	}
	e.lowerKernels(groups)
	return e, nil
}

// freeAlias returns the name a runtime gives a converted tensor: want,
// unless a tensor of the graph or an alias already given holds it, and
// then the first of want_1, want_2, ... that neither holds. A runtime
// names its own tensors uniquely; an alias that took a model tensor's
// name would hide that tensor from layer mapping.
func freeAlias(g *graph.Graph, want string, given []string) string {
	name := want
	for i := 1; g.Tensor(name) != nil || slices.Contains(given, name); i++ {
		name = want + "_" + strconv.Itoa(i)
	}
	return name
}

// add appends one layer in execution order.
func (e *Engine) add(pub Layer, truth *analysis.Layer, work sim.Work) {
	e.layers = append(e.layers, pub)
	e.truths = append(e.truths, truth)
	e.works = append(e.works, work)
}

// groupKindKey names a fusion-group kind inside content keys: Myelin
// regions and ordinary groups over the same nodes are lowered
// differently and must never share a memoized unit.
func groupKindKey(k GroupKind) string {
	if k == KindMyelin {
		return "myelin"
	}
	return "normal"
}

// lowerKernels gives every layer its kernels. One counting pass sizes
// the engine's single kernel array and the single string that holds
// every kernel name; the second writes them, and each layer's kernels
// are a capped run of the array that share its time equally.
func (e *Engine) lowerKernels(groups []*Group) {
	arch, dt := e.cfg.Platform.Arch, e.cfg.DType
	count, size := 0, 0
	e.eachKernel(groups, func(_ int, class sim.Class, name string) {
		count++
		size += sim.KernelNameLen(arch, class, dt, name)
	})
	kernels := make([]Kernel, 0, count)
	var names strings.Builder
	names.Grow(size)
	var buf [256]byte
	layer, first := -1, 0
	e.eachKernel(groups, func(i int, class sim.Class, name string) {
		if i != layer {
			layer, first = i, len(kernels)
		}
		at := names.Len()
		names.Write(sim.AppendKernelName(buf[:0], arch, class, dt, name))
		l := &e.layers[i]
		kernels = append(kernels, Kernel{Name: names.String()[at:], LayerName: l.Name})
		l.Kernels = kernels[first:len(kernels):len(kernels)]
	})
	for i := range e.layers {
		ks := e.layers[i].Kernels
		share := 1.0 / float64(len(ks))
		for k := range ks {
			ks[k].ShareOfLayer = share
		}
	}
}

// eachKernel lowers every layer, in execution order, to its kernels
// (Figure 3's bottom level) and calls f with each kernel's layer index,
// class and the name its fabricated name ends in. A reformat launches
// one copy kernel. A Myelin region launches one kernel per matrix
// multiply plus a fused elementwise kernel. Any other layer launches
// one kernel of its class, named after its anchor node when it has one.
func (e *Engine) eachKernel(groups []*Group, f func(layer int, class sim.Class, name string)) {
	next := 0
	for i := range e.layers {
		l := &e.layers[i]
		if l.IsReformat {
			f(i, sim.ClassMemCopy, l.Name)
			continue
		}
		gr := groups[next]
		next++
		switch {
		case gr.Kind == KindMyelin:
			for _, n := range gr.Nodes {
				if n.OpType == "MatMul" || n.OpType == "Gemm" {
					f(i, sim.ClassGEMM, n.Name)
				}
			}
			f(i, sim.ClassElementwise, "myelin_pointwise")
		case gr.Anchor != nil:
			f(i, e.works[i].Class, gr.Anchor.Name)
		default:
			f(i, e.works[i].Class, l.Name)
		}
	}
}

// BoundaryIO returns a ground-truth layer's activation inputs/outputs
// with runtime aliases applied — the io info a runtime exposes for a
// layer. A list no alias applies to is the fused operator's own, or
// the node's, capped; only a list an alias rewrites is copied. Either
// way the lists are read-only (see Layer).
func BoundaryIO(truth *analysis.Layer, alias map[string]string) (ins, outs []string) {
	if truth.Fused != nil {
		return withAliases(truth.Fused.Inputs, alias), withAliases(truth.Fused.Outputs, alias)
	}
	return withAliases(truth.Node.Inputs, alias), withAliases(truth.Node.Outputs, alias)
}

// withAliases returns names with every aliased name replaced by its
// alias: names itself, capped, when none is aliased, and a copy
// otherwise.
func withAliases(names []string, alias map[string]string) []string {
	for i, n := range names {
		if _, ok := alias[n]; !ok {
			continue
		}
		out := make([]string, len(names))
		copy(out, names[:i])
		for j := i; j < len(names); j++ {
			out[j] = names[j]
			if a, ok := alias[names[j]]; ok {
				out[j] = a
			}
		}
		return out
	}
	return names[:len(names):len(names)]
}
