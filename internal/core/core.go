// Package core orchestrates the full PRoof pipeline (Figure 1): model →
// analysis representation → backend build → layer mapping → per-layer
// units (built-in-profiler latency plus metrics analytically predicted,
// or measured via simulated hardware counters) → end-to-end and
// layer-wise roofline analysis → report.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	_ "proof/internal/backend/ortsim" // register runtimes
	_ "proof/internal/backend/ovsim"
	_ "proof/internal/backend/trtsim"
	"proof/internal/graph"
	"proof/internal/graphops"
	"proof/internal/hardware"
	"proof/internal/ncusim"
	"proof/internal/obs"
	"proof/internal/roofline"
	"proof/internal/sim"
)

// Mode selects how per-layer FLOP and memory metrics are obtained.
type Mode string

const (
	// ModePredicted uses PRoof's analytical model: only per-layer
	// latencies come from the runtime's built-in profiler; FLOP and
	// memory are predicted from the mapped model structure (§3.2).
	ModePredicted Mode = "predicted"
	// ModeMeasured uses the (simulated) hardware-counter profiler:
	// FLOP and memory traffic come from per-kernel counters, with the
	// tensor-core FLOP correction applied (§4.2). Adds large
	// profiling overhead.
	ModeMeasured Mode = "measured"
)

// ParseMode validates a metrics-mode name as it arrives from a flag or
// an API request body. The empty string selects ModePredicted, matching
// Options.Mode's zero-value behavior.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModePredicted:
		return ModePredicted, nil
	case ModeMeasured:
		return ModeMeasured, nil
	}
	return "", fmt.Errorf("core: unknown mode %q (have %q, %q)", s, ModePredicted, ModeMeasured)
}

// Options configures one profiling run. Zero fields select the
// platform's evaluation configuration (Table 2); Resolve applies them.
type Options struct {
	// Model is the zoo key ("resnet-50", ...). When Graph is set, Model
	// is only the report's display name (empty = Graph.Name).
	Model string
	// Graph optionally supplies a pre-built model graph. The pipeline
	// never writes it: each run profiles its own view (graph.View) of
	// the admitted graph. An admitted graph (graph.Admit, as proofd's
	// edge passes) is used as is, without verifying it again; a raw
	// graph is admitted for the run, which verifies it once
	// (ValidateAll).
	Graph *graph.Graph
	// Platform is the hardware key ("a100", ...).
	Platform string
	// Backend overrides the platform's default runtime.
	Backend string
	// Batch is the batch size (0 = platform default; negative is an
	// error).
	Batch int
	// DType is the inference data type (invalid/zero = platform
	// default).
	DType graph.DataType
	// Mode selects predicted vs measured metrics ("" = predicted).
	Mode Mode
	// Clocks is the clock configuration, read by the platform's clock
	// rule (hardware.Platform.ResolveClocks: an unset clock is the
	// domain's maximum on a DVFS platform). A GPU, EMC or CPU clock
	// above its domain's maximum, or more CPU clusters than the
	// platform has, is an error.
	Clocks hardware.Clocks
	// Seed varies the simulated run-to-run jitter.
	Seed uint64
	// MeasuredRoofline draws the roofline ceilings from the peak-test
	// pseudo model instead of the platform constants.
	MeasuredRoofline bool
	// IgnoreSupport profiles even when the platform does not claim to
	// support the model family. It is not keyed: it changes nothing on
	// a supported pair.
	IgnoreSupport bool
}

// KernelReport is one lowered kernel of a backend layer (the bottom
// level of Figure 3's full-stack hierarchy).
type KernelReport struct {
	// Name is the kernel name as a system trace reports it.
	Name string `json:"name"`
	// Latency is the kernel's share of the layer latency.
	Latency time.Duration `json:"latency_ns"`
}

// LayerReport is the per-backend-layer profiling result.
type LayerReport struct {
	// Name is the backend layer name.
	Name string `json:"name"`
	// IsReformat marks runtime-inserted conversion layers.
	IsReformat bool `json:"is_reformat,omitempty"`
	// OriginalNodes are the model-design nodes this layer maps to
	// (empty for reformats) — the backward mapping of §3.3.
	OriginalNodes []string `json:"original_nodes,omitempty"`
	// OpTypes are the distinct original operator types in the layer.
	OpTypes []string `json:"op_types,omitempty"`
	// Category tags the layer for chart coloring.
	Category string `json:"category"`
	// Point is the roofline point (latency, FLOP, bytes, AI, rates).
	// Point.Bound classifies the layer's position against the
	// roofline ridge (memory vs compute side).
	Point roofline.Point `json:"point"`
	// ExecutionBound reports what actually dominated the layer's
	// simulated execution: "compute", "memory" or "overhead" (launch
	// cost larger than both).
	ExecutionBound string `json:"execution_bound,omitempty"`
	// Kernels are the layer's lowered kernels with attributed
	// latency — together with OriginalNodes this is the full-stack
	// model-layer ↔ backend-layer ↔ kernel mapping of Figure 3.
	Kernels []KernelReport `json:"kernels,omitempty"`
}

// Report is the complete profiling result of one run.
type Report struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`
	Backend  string `json:"backend"`
	Batch    int    `json:"batch"`
	DType    string `json:"dtype"`
	Mode     Mode   `json:"mode"`
	// Roofline is the ceiling set used for analysis.
	Roofline roofline.Model `json:"roofline"`
	// EndToEnd is the whole-model roofline point (Figure 4).
	EndToEnd roofline.Point `json:"end_to_end"`
	// Layers is the layer-wise analysis (Figures 5, 6, 8).
	Layers []LayerReport `json:"layers"`
	// TotalLatency is the end-to-end inference latency.
	TotalLatency time.Duration `json:"total_latency_ns"`
	// Throughput is samples per second at the profiled batch size.
	Throughput float64 `json:"throughput"`
	// ProfilingOverhead is the counter-profiler replay cost (measured
	// mode only) — Table 4's "Prof. time".
	ProfilingOverhead time.Duration `json:"profiling_overhead_ns,omitempty"`
	// UtilCompute/UtilMem are the aggregate utilizations of the run.
	UtilCompute float64 `json:"util_compute"`
	UtilMem     float64 `json:"util_mem"`
	// PowerW is the estimated platform power draw during the run (0
	// when the platform has no power model).
	PowerW float64 `json:"power_w,omitempty"`
	// NodeCount and ParamsM describe the profiled model.
	NodeCount int     `json:"node_count"`
	ParamsM   float64 `json:"params_m"`
}

// ProfileFunc is the signature of ProfileCtx — the seam where caching
// sessions (profsession), fault injectors (faults.Wrap) and test stubs
// interpose on the pipeline. Everything above the pipeline programs
// against this type rather than the concrete function.
type ProfileFunc func(context.Context, Options) (*Report, error)

// ProfileCtx runs the full PRoof pipeline, honoring cancellation and
// deadline between pipeline stages (model build, backend build, layer
// mapping, metric collection). The pipeline stages themselves are
// synchronous; ctx is checked at each stage boundary so an abandoned
// request stops doing work at the next opportunity.
//
// Every run builds its own engine and ends in the same tail, which
// writes the report's layers in one pass (see layerSource.tail). The
// pipeline keeps no results: reuse of whole reports belongs to the
// caller, such as a profsession.Session.
//
// When an obs.Tracer is installed in ctx, the run is recorded as a
// "pipeline" span with one child span per stage (model_build,
// backend_build, layer_map, roofline, measure, analysis) — the profiler
// profiling itself. model_build nests an "admit" span when the run
// admits its graph: a zoo model's first run in the process, or a raw
// Options.Graph. With no tracer installed the instrumentation is a true
// no-op.
func ProfileCtx(ctx context.Context, opts Options) (*Report, error) {
	ctx, pipe := obs.Start(ctx, "pipeline")
	rep, err := profilePipeline(ctx, opts, pipe)
	pipe.EndErr(err)
	return rep, err
}

func profilePipeline(ctx context.Context, opts Options, pipe *obs.Span) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := Resolve(opts)
	if err != nil {
		return nil, err
	}
	pipe.SetAttr("model", opts.Model)
	pipe.SetAttr("platform", r.Plat.Key)
	pipe.SetAttr("backend", r.Backend)
	pipe.SetAttrInt("batch", int64(r.Batch))
	pipe.SetAttr("dtype", r.DType.String())
	pipe.SetAttr("mode", string(r.Mode))
	src, err := build(ctx, &r)
	if err != nil {
		return nil, err
	}
	_, asp := obs.Start(ctx, "analysis")
	defer asp.End()
	return src.tail(&r)
}

// build runs every pipeline stage before the tail, each under its own
// span: model build, backend build, layer mapping, the roofline
// ceilings and, in measured mode, the counter replay.
func build(ctx context.Context, r *Resolved) (layerSource, error) {
	plat, dt := r.Plat, r.DType
	mctx, msp := obs.Start(ctx, "model_build")
	adm, err := admittedGraph(mctx, r.Options)
	if err != nil {
		msp.EndErr(err)
		return layerSource{}, err
	}
	// The run writes only its own view: rebatching, dtype conversion
	// and shape inference change tensor shapes and types, which the
	// view copies; the admitted graph stays shared and unchanged.
	g := adm.View()
	if graphops.IsQuantized(g) {
		// Explicitly quantized graphs (Q/DQ boundary nodes) keep
		// their tensor types and run on the int8 math units.
		dt = graph.Int8
	} else {
		g.ConvertFloatTensors(dt)
	}
	rep, err := analysis.NewRepWithBatch(g, r.Batch)
	if err != nil {
		msp.EndErr(err)
		return layerSource{}, err
	}
	msp.SetAttrInt("nodes", int64(rep.NodeCount()))
	msp.End()
	if err := ctx.Err(); err != nil {
		return layerSource{}, err
	}

	cfg := backend.Config{Platform: plat, DType: dt, Batch: r.Batch, Clocks: r.Clocks}
	bctx, bsp := obs.Start(ctx, "backend_build")
	eng, err := r.runtime.Build(bctx, rep, cfg)
	if err != nil {
		bsp.EndErr(err)
		return layerSource{}, err
	}
	bsp.SetAttrInt("layers", int64(len(eng.Layers())))
	bsp.End()
	if err := ctx.Err(); err != nil {
		return layerSource{}, err
	}

	// Layer mapping: reconstruct the fused structure from the public
	// backend info.
	lctx, lsp := obs.Start(ctx, "layer_map")
	opt := analysis.NewOptimizedRep(rep)
	mapping, err := r.runtime.MapLayers(lctx, eng, opt)
	if err != nil {
		err = fmt.Errorf("core: layer mapping on %s: %w", r.Backend, err)
		lsp.EndErr(err)
		return layerSource{}, err
	}
	lsp.End()
	if err := ctx.Err(); err != nil {
		return layerSource{}, err
	}
	src := layerSource{eng: eng, mapping: mapping, opt: opt, rep: rep, dtype: dt, seed: r.Seed}

	// Roofline ceilings.
	rctx, rsp := obs.Start(ctx, "roofline")
	if r.MeasuredRoofline {
		src.rl, err = roofline.MeasuredModel(rctx, plat, dt, r.Clocks, r.Seed)
		if err != nil {
			rsp.EndErr(err)
			return layerSource{}, err
		}
	} else {
		src.rl = roofline.NewModel(plat, dt, r.Clocks)
	}
	rsp.End()

	// Measured metrics, when requested. The counter-profiler replay is
	// the most expensive stage, so check for abandonment right before.
	if r.Mode == ModeMeasured {
		if err := ctx.Err(); err != nil {
			return layerSource{}, err
		}
		_, nsp := obs.Start(ctx, "measure")
		res, err := ncusim.Measure(eng, r.Seed)
		if err != nil {
			nsp.EndErr(err)
			return layerSource{}, err
		}
		nsp.SetAttrInt("kernels", int64(len(res.Layers)))
		nsp.End()
		src.measured, src.overhead = res.Layers, res.ProfilingTime
	}
	return src, nil
}

// categorize tags a mapped layer for roofline chart coloring, matching
// the paper's figures: depth-wise conv (Figures 5d, 8), point-wise
// conv, other conv, MatMul-containing layers (Figure 5b), transpose and
// data-copy layers (Figure 6).
func categorize(layer *analysis.Layer, g *graph.Graph) string {
	nodes := layer.OriginalNodes()
	class := sim.ClassifyNodes(nodes, g)
	switch class {
	case sim.ClassGEMM:
		return "matmul"
	case sim.ClassDWConv:
		return "dwconv"
	case sim.ClassConv:
		for _, n := range nodes {
			if n.OpType != "Conv" {
				continue
			}
			if w := g.In(n, 1); w != nil && w.Shape.Rank() == 4 &&
				w.Shape[2] == 1 && w.Shape[3] == 1 {
				return "pwconv"
			}
			return "conv"
		}
		return "conv"
	case sim.ClassDataMovement:
		for _, n := range nodes {
			if n.OpType == "Transpose" {
				return "transpose"
			}
		}
		return "copy"
	case sim.ClassMemCopy:
		return "copy"
	default:
		return strings.ToLower(class.String())
	}
}
