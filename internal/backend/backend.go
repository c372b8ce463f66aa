// Package backend implements the paper's backend abstraction (§3.3): a
// unified interface over DNN inference runtimes. Because no production
// runtime exists for this environment, the three runtimes of Table 2 are
// reproduced as simulators — trtsim (TensorRT-like), ovsim
// (OpenVINO-like) and ortsim (ONNX-Runtime-like) — each with its own
// graph-optimization pipeline (operator fusion, reformat/reorder layer
// insertion, Myelin-style opaque regions) and, crucially, its own
// *information regime*: the kind and completeness of the
// backend-layer-to-model-layer mapping information the runtime exposes,
// which is what the paper's layer-mapping strategies must cope with.
package backend

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/sim"
)

// Config selects how a model is built and executed on a backend.
type Config struct {
	// Platform is the simulated hardware.
	Platform *hardware.Platform
	// DType is the inference data type (fp32/fp16/int8).
	DType graph.DataType
	// Batch is the inference batch size.
	Batch int
	// Clocks is the clock configuration; BuildEngine resolves it with
	// Platform.ResolveClocks.
	Clocks hardware.Clocks
}

// Kernel is one lowered low-level operation (e.g. a CUDA kernel) of a
// backend layer, as a vendor system profiler would report it (Figure 3's
// bottom level).
type Kernel struct {
	// Name is the fabricated kernel name.
	Name string
	// LayerName is the owning backend layer (the correlation Nsight
	// Systems provides).
	LayerName string
	// ShareOfLayer is the fraction of the layer's time this kernel
	// takes.
	ShareOfLayer float64
}

// Layer is the public description of one backend layer — only the
// information the simulated runtime chooses to expose. Which fields are
// populated depends on the backend (the information regimes of §3.3).
//
// A layer's names and lists live in storage the engine build allocates
// once per run, and are read-only: a name the build made is a substring
// of one text, FusedNodeNames a capped run of one list of node names,
// InputTensors and OutputTensors a model node's own Inputs and Outputs,
// capped, or — for a fused operator's boundary, a reformat's pair or a
// list an alias rewrote — capped runs of one array, and Kernels a
// capped run of the engine's one kernel array, every kernel name a
// substring of one string.
type Layer struct {
	// Name is the runtime-assigned layer name.
	Name string
	// FusedNodeNames lists the original node names fused into this
	// layer, when the runtime exposes them (ovsim, like OpenVINO's
	// ORIGINAL_LAYER_NAMES; trtsim non-Myelin layers encode them in
	// the name).
	FusedNodeNames []string
	// InputTensors/OutputTensors are the layer's boundary tensors as
	// the runtime names them — possibly aliases created by reorder
	// layers (ortsim/trtsim).
	InputTensors  []string
	OutputTensors []string
	// IsReformat marks runtime-inserted data conversion layers
	// (TensorRT "Reformat", OpenVINO "Convert", ONNX Runtime
	// "reorder"): they correspond to no original model node.
	IsReformat bool
	// Opaque marks layers for which the runtime exposes no node
	// names (trtsim Myelin "{ForeignNode[...]}" regions).
	Opaque bool
	// Kernels lists the lowered kernels of this layer.
	Kernels []Kernel
}

// Mapping is the result of layer mapping: the optimized-representation
// layer each backend layer corresponds to, one entry per engine layer
// in execution order (Engine.Layers). Reformat layers map to nil (they
// have no original nodes). Runtimes do not promise unique layer names —
// a model node may carry the name a runtime gives a reformat layer — so
// a mapping goes by position, never by name. MapNodes builds every
// runtime's mapping: the layers it points to sit in one array, and their
// fused operators and node lists in one array each.
type Mapping []*analysis.Layer

// Backend is one simulated DNN inference runtime. Both operations take
// a context so that the obs tracing layer can attribute time to the
// build and mapping internals (a backend with no tracer installed pays
// nothing).
type Backend interface {
	// Name returns the backend key ("trtsim", "ovsim", "ortsim").
	Name() string
	// Build optimizes the model for the target config and returns an
	// executable engine.
	Build(ctx context.Context, rep *analysis.Rep, cfg Config) (*Engine, error)
	// MapLayers implements PRoof's layer-mapping strategy for this
	// runtime: using only the public Layer info of the engine, it
	// transforms opt into the backend's fused structure and returns
	// the backend-layer-to-model-layer mapping.
	MapLayers(ctx context.Context, e *Engine, opt *analysis.OptimizedRep) (Mapping, error)
}

var registry = map[string]Backend{}

// Register installs a backend implementation.
func Register(b Backend) {
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("backend: duplicate backend %q", b.Name()))
	}
	registry[b.Name()] = b
}

// Get returns the backend for a key.
func Get(key string) (Backend, error) {
	if b, ok := registry[key]; ok {
		return b, nil
	}
	keys := make([]string, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return nil, fmt.Errorf("backend: unknown backend %q (have %v)", key, keys)
}

// List returns the registered backend keys, sorted.
func List() []string {
	keys := make([]string, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Engine is a built (optimized) model on a backend, ready to execute.
// The public surface (Layers with their kernels, per-layer timings)
// models what a real runtime and its built-in profiler expose; the
// ground-truth internals are only available to the simulator and to
// tests via GroundTruth.
type Engine struct {
	backendName string
	cfg         Config
	// rep is the engine's internal analysis of the (re-typed,
	// re-batched) model.
	rep *analysis.Rep
	// layers is the public layer info in execution order. truths and
	// works run parallel to it: each layer's optimized-representation
	// layer (nil for reformats), hidden from the mapping code, and its
	// simulation workload.
	layers []Layer
	truths []*analysis.Layer
	works  []sim.Work
}

// BackendName returns the owning backend key.
func (e *Engine) BackendName() string { return e.backendName }

// Config returns the build configuration.
func (e *Engine) Config() Config { return e.cfg }

// Layers returns the public per-layer information in execution order.
// The slice is the engine's own: callers must not modify it or the
// layers in it.
func (e *Engine) Layers() []Layer { return e.layers }

// Timings runs the simulator and returns the detailed per-layer timing
// records (compute/memory split, actual traffic) in execution order —
// the ground-truth execution internal/ncusim measures.
func (e *Engine) Timings(seed uint64) []sim.Timing {
	cfg := e.simConfig(seed)
	timings := make([]sim.Timing, len(e.works))
	for i, w := range e.works {
		timings[i] = sim.SimulateLayer(w, cfg)
	}
	return timings
}

// LayerTiming simulates a single layer by execution index — the
// built-in profiler's per-layer latency. The pipeline tail times each
// layer with it, so it allocates nothing.
//
//lint:hotpath
func (e *Engine) LayerTiming(i int, seed uint64) sim.Timing {
	return sim.SimulateLayer(e.works[i], e.simConfig(seed))
}

// Works returns the per-layer simulation workloads in execution order.
// Only the measurement path (ncusim) may consult this — it corresponds
// to what hardware performance counters observe.
func (e *Engine) Works() []sim.Work {
	return slices.Clone(e.works)
}

// GroundTruth returns the runtime's internal fused layer for backend
// layer i in execution order (nil for reformat layers). Exposed for
// validation tests; PRoof's mapping code must not use it.
func (e *Engine) GroundTruth(i int) *analysis.Layer { return e.truths[i] }

// Rep returns the engine's internal analysis representation (re-typed
// and re-batched model).
func (e *Engine) Rep() *analysis.Rep { return e.rep }

func (e *Engine) simConfig(seed uint64) sim.Config {
	return sim.Config{
		Platform: e.cfg.Platform,
		Clocks:   e.cfg.Clocks,
		DType:    e.cfg.DType,
		Seed:     seed,
	}
}
