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
	// AliasSuffix names the converted tensor Tensor+AliasSuffix (see
	// freeAlias).
	AliasSuffix string
	// Prefix and Index name the reformat layer Prefix<Index>.
	Prefix string
	Index  int
}

// InfoFn describes fusion group idx as the runtime reveals it: it
// appends the layer's name to text and the names of the original nodes
// it exposes to nodes, and returns both with the layer's flags. A
// runtime that names a layer with a string it already holds sets the
// returned Layer's Name and appends no text. BuildEngine calls it twice
// per group, first to size the build's one name text and one node-name
// list and then to fill them, so both calls must append the same; it
// sets the layer's boundary tensors itself. This is where each backend
// decides what it reveals.
type InfoFn func(text []byte, nodes []string, idx int, gr *Group) ([]byte, []string, Layer)

// ReformatFn decides where a backend inserts reformat/reorder layers.
type ReformatFn func(rep *analysis.Rep, groups []Group) []ReformatSpec

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
// The build sizes its lists from counts it takes before it fills them:
// the ground-truth layers sit in one array, one per group, and the
// fused operators in another, one per multi-node group; every name the
// build makes (fused groups', the runtime's layer names, reformat
// names and tensor aliases) is a substring of one text, and every node
// name a runtime exposes sits in one list; the layers' boundary tensor
// lists share the model nodes' lists or are runs of one array; and the
// kernels sit in one array, their names in another string (see
// lowerKernels).
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

	// Reformats are emitted in position order, in the order the runtime
	// listed them at each position; one whose position is outside
	// 0..len(groups) is never emitted.
	var reformats []ReformatSpec
	if spec.Reformats != nil {
		reformats = spec.Reformats(rep, groups)
	}
	slices.SortStableFunc(reformats, func(a, b ReformatSpec) int { return cmp.Compare(a.BeforeGroup, b.BeforeGroup) })

	// Sizing pass: the fused groups, the text every name is written to
	// and the node names the runtime exposes. A fused group is named
	// <backend>_group_<index>.
	var digits [20]byte
	var scratch []byte
	var scratchNodes []string
	nFused, size, nNodes := 0, 0, 0
	for i := range groups {
		gr := &groups[i]
		if len(gr.Nodes) > 1 {
			nFused++
			size += len(spec.BackendName) + len("_group_") + len(strconv.AppendInt(digits[:0], int64(i), 10))
		}
		scratch, scratchNodes, _ = spec.Info(scratch[:0], scratchNodes[:0], i, gr)
		size += len(scratch)
		nNodes += len(scratchNodes)
	}
	for _, r := range reformats {
		if r.BeforeGroup >= 0 && r.BeforeGroup <= len(groups) {
			size += len(r.Tensor) + len(r.AliasSuffix) + len(r.Prefix) + len(strconv.AppendInt(digits[:0], int64(r.Index), 10))
		}
	}
	var text strings.Builder
	text.Grow(size)
	var nodeNames []string
	if nNodes > 0 {
		nodeNames = make([]string, 0, nNodes)
	}

	// Ground-truth layers per group.
	truths := make([]analysis.Layer, len(groups))
	ops := make([]analysis.FusedOp, nFused)
	nFused = 0
	for i := range groups {
		gr := &groups[i]
		if len(gr.Nodes) == 1 {
			truths[i].Node = gr.Nodes[0]
			continue
		}
		at := text.Len()
		text.WriteString(spec.BackendName)
		text.WriteString("_group_")
		text.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		f := &ops[nFused]
		nFused++
		if err := internalOpt.SetFusedOp(f, text.String()[at:], gr.Nodes); err != nil {
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

	// alias maps each converted tensor to its runtime alias, and holds
	// every alias handed out, so freeAlias finds a name free in one
	// lookup. Before the assembly it counts the boundary tensors the
	// layers list in their own slots: a reformat's pair, a fused
	// group's boundary and a node list an alias rewrites, at the
	// position the reformats reached.
	alias := make(map[string]string, 2*len(reformats))
	slots := 0
	for pos, next := 0, 0; pos <= len(groups); pos++ {
		for ; next < len(reformats) && reformats[next].BeforeGroup <= pos; next++ {
			if reformats[next].BeforeGroup == pos {
				alias[reformats[next].Tensor] = ""
				slots += 2
			}
		}
		if pos == len(groups) {
			break
		}
		if f := truths[pos].Fused; f != nil {
			slots += f.NumInputs + f.NumOutputs
		} else if n := truths[pos].Node; aliased(n.Inputs, alias) || aliased(n.Outputs, alias) {
			slots += len(n.Inputs) + len(n.Outputs)
		}
	}
	clear(alias)
	io := make([]string, 0, slots)

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
			at := text.Len()
			text.WriteString(r.Prefix)
			text.Write(strconv.AppendInt(digits[:0], int64(r.Index), 10))
			name := text.String()[at:]
			a := freeAlias(rep.Graph, &text, r.Tensor, r.AliasSuffix, alias)
			alias[a] = ""
			alias[r.Tensor] = a
			at = len(io)
			io = append(io, r.Tensor, a)
			pub := Layer{
				Name:          name,
				InputTensors:  io[at : at+1 : at+1],
				OutputTensors: io[at+1 : at+2 : at+2],
				IsReformat:    true,
			}
			e.add(pub, nil, sim.Work{
				Name:  name,
				Key:   memo.ReformatKey(t),
				Class: sim.ClassMemCopy,
				Bytes: graph.MulCount(2, t.Bytes()),
			})
		}
		return nil
	}

	for i := range groups {
		if err := emitReformats(i); err != nil {
			return nil, err
		}
		gr := &groups[i]
		truth := &truths[i]
		cost, err := internalOpt.LayerCost(truth)
		if err != nil {
			return nil, fmt.Errorf("backend %s: cost of group %d: %w", spec.BackendName, i, err)
		}
		var pub Layer
		atNodes := len(nodeNames)
		scratch, nodeNames, pub = spec.Info(scratch[:0], nodeNames, i, gr)
		if len(scratch) > 0 {
			at := text.Len()
			text.Write(scratch)
			pub.Name = text.String()[at:]
		}
		if len(nodeNames) > atNodes {
			pub.FusedNodeNames = nodeNames[atNodes:len(nodeNames):len(nodeNames)]
		}
		pub.InputTensors, pub.OutputTensors, io = boundaryIO(internalOpt, truth, alias, io)
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

// freeAlias writes to text, and returns, the name a runtime gives tensor
// converted with suffix: tensor+suffix, unless a tensor of the graph or
// an alias already given (a key of taken) holds it, and then the first
// of tensor+suffix+"_1", "_2", ... that neither holds. A runtime names
// its own tensors uniquely; an alias that took a model tensor's name
// would hide that tensor from layer mapping.
func freeAlias(g *graph.Graph, text *strings.Builder, tensor, suffix string, taken map[string]string) string {
	var digits [20]byte
	for i := 0; ; i++ {
		at := text.Len()
		text.WriteString(tensor)
		text.WriteString(suffix)
		if i > 0 {
			text.WriteByte('_')
			text.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		}
		name := text.String()[at:]
		if _, given := taken[name]; !given && g.Tensor(name) == nil {
			return name
		}
	}
}

// aliased reports whether an alias applies to any of names.
func aliased(names []string, alias map[string]string) bool {
	for _, n := range names {
		if _, ok := alias[n]; ok {
			return true
		}
	}
	return false
}

// boundaryIO returns a ground-truth layer's activation inputs/outputs
// with runtime aliases applied — the io info a runtime exposes for a
// layer — and io, extended by the lists it wrote there. A fused
// operator's lists are written to io; a node's lists no alias applies
// to are its own, capped, and only lists an alias rewrites are copied
// to io. Either way the lists are read-only (see Layer).
func boundaryIO(opt *analysis.OptimizedRep, truth *analysis.Layer, alias map[string]string, io []string) (ins, outs, _ []string) {
	at := len(io)
	var nIn int
	switch n := truth.Node; {
	case truth.Fused != nil:
		io = opt.AppendBoundary(io, truth.Fused)
		nIn = truth.Fused.NumInputs
	case aliased(n.Inputs, alias) || aliased(n.Outputs, alias):
		io = append(append(io, n.Inputs...), n.Outputs...)
		nIn = len(n.Inputs)
	default:
		return n.Inputs[:len(n.Inputs):len(n.Inputs)], n.Outputs[:len(n.Outputs):len(n.Outputs)], io
	}
	for j := at; j < len(io); j++ {
		if a, ok := alias[io[j]]; ok && a != "" {
			io[j] = a
		}
	}
	return io[at : at+nIn : at+nIn], io[at+nIn : len(io) : len(io)], io
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
func (e *Engine) lowerKernels(groups []Group) {
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
func (e *Engine) eachKernel(groups []Group, f func(layer int, class sim.Class, name string)) {
	next := 0
	for i := range e.layers {
		l := &e.layers[i]
		if l.IsReformat {
			f(i, sim.ClassMemCopy, l.Name)
			continue
		}
		gr := &groups[next]
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
