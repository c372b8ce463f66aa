package backend

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/hardware"
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

	// Ground-truth layers per group.
	truths := make([]*analysis.Layer, len(groups))
	for i, gr := range groups {
		if len(gr.Nodes) == 1 {
			truths[i] = &analysis.Layer{Node: gr.Nodes[0]}
			continue
		}
		f, err := internalOpt.SetFusedOp(spec.BackendName+"_group_"+strconv.Itoa(i), gr.Nodes)
		if err != nil {
			err = fmt.Errorf("backend %s: fusing group %d: %w", spec.BackendName, i, err)
			fsp.EndErr(err)
			return nil, err
		}
		truths[i] = &analysis.Layer{Fused: f}
	}
	fsp.SetAttrInt("groups", int64(len(groups)))
	fsp.End()

	_, asp := obs.Start(ctx, "assemble")
	defer asp.End()

	var reformats []ReformatSpec
	if spec.Reformats != nil {
		reformats = spec.Reformats(rep, groups)
	}
	byPos := map[int][]ReformatSpec{}
	for _, r := range reformats {
		byPos[r.BeforeGroup] = append(byPos[r.BeforeGroup], r)
	}

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
		for _, r := range byPos[pos] {
			t := rep.Graph.Tensor(r.Tensor)
			if t == nil {
				return fmt.Errorf("backend %s: reformat of unknown tensor %q", spec.BackendName, r.Tensor)
			}
			name := freeAlias(rep.Graph, r.Alias, given)
			given = append(given, name)
			alias[r.Tensor] = name
			bytes := 2 * t.Bytes()
			pub := Layer{
				Name:          r.Name,
				InputTensors:  []string{r.Tensor},
				OutputTensors: []string{name},
				IsReformat:    true,
			}
			pub.Kernels = []Kernel{{
				Name:         sim.KernelNameFor(cfg.Platform.Arch, sim.ClassMemCopy, cfg.DType, r.Name),
				LayerName:    r.Name,
				ShareOfLayer: 1,
			}}
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
		truth := truths[i]
		cost, err := internalOpt.LayerCost(truth)
		if err != nil {
			return nil, fmt.Errorf("backend %s: cost of group %d: %w", spec.BackendName, i, err)
		}
		pub := spec.Info(i, gr, truth, alias)
		class := sim.ClassifyNodes(gr.Nodes, rep.Graph)
		work := sim.Work{
			Name:      pub.Name,
			Key:       memo.ContentKey(rep.Graph, gr.Nodes, groupKindKey(gr.Kind)),
			Class:     class,
			HWFLOP:    sim.HardwareFLOPForNodes(rep, gr.Nodes, cfg.Platform),
			ModelFLOP: cost.FLOP,
			Bytes:     cost.MemoryBytes(),
		}
		pub.Kernels = lowerKernels(gr, pub.Name, class, cfg.Platform, cfg.DType, rep.Graph)
		e.add(pub, truth, work)
	}
	if err := emitReformats(len(groups)); err != nil {
		return nil, err
	}
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

// lowerKernels fabricates the kernel-level lowering of a backend layer
// (Figure 3's bottom level): Myelin regions launch one kernel per
// matrix multiply plus a fused elementwise kernel; ordinary layers
// launch one kernel.
func lowerKernels(gr *Group, layerName string, class sim.Class, plat *hardware.Platform, dt graph.DataType, g *graph.Graph) []Kernel {
	if gr.Kind == KindMyelin {
		var kernels []Kernel
		for _, n := range gr.Nodes {
			if n.OpType == "MatMul" || n.OpType == "Gemm" {
				kernels = append(kernels, Kernel{
					Name:      sim.KernelNameFor(plat.Arch, sim.ClassGEMM, dt, n.Name),
					LayerName: layerName,
				})
			}
		}
		kernels = append(kernels, Kernel{
			Name:      sim.KernelNameFor(plat.Arch, sim.ClassElementwise, dt, "myelin_pointwise"),
			LayerName: layerName,
		})
		share := 1.0 / float64(len(kernels))
		for i := range kernels {
			kernels[i].ShareOfLayer = share
		}
		return kernels
	}
	name := layerName
	if gr.Anchor != nil {
		name = gr.Anchor.Name
	}
	return []Kernel{{
		Name:         sim.KernelNameFor(plat.Arch, class, dt, name),
		LayerName:    layerName,
		ShareOfLayer: 1,
	}}
}

// BoundaryIO returns a ground-truth layer's activation inputs/outputs
// with runtime aliases applied — the io info a runtime exposes for a
// layer.
func BoundaryIO(truth *analysis.Layer, alias map[string]string) (ins, outs []string) {
	applyAlias := func(names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			if a, ok := alias[n]; ok {
				n = a
			}
			out[i] = n
		}
		return out
	}
	if truth.Fused != nil {
		return applyAlias(truth.Fused.Inputs), applyAlias(truth.Fused.Outputs)
	}
	n := truth.Node
	var rawIns []string
	for _, in := range n.Inputs {
		rawIns = append(rawIns, in)
	}
	return applyAlias(rawIns), applyAlias(n.Outputs)
}
