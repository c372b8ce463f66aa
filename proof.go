// Package proof is a from-scratch Go reproduction of PRoof (ICPP 2024):
// a comprehensive hierarchical profiling framework for deep neural
// networks with roofline analysis.
//
// PRoof profiles a DNN model on a (simulated) inference runtime and
// hardware platform, maps the runtime's optimized backend layers back to
// the original model-design layers, and performs end-to-end and
// layer-wise roofline analysis — either with analytically predicted FLOP
// and memory-access metrics (fast, platform-independent) or with
// (simulated) hardware-counter measurements.
//
// Quick start:
//
//	report, err := proof.ProfileCtx(ctx, proof.Options{
//		Model:    "resnet-50",
//		Platform: "a100",
//		Batch:    128,
//	})
//	if err != nil { ... }
//	proof.WriteText(os.Stdout, report, 15)
//
// The package re-exports the stable API surface; the implementation
// lives under internal/ (graph IR, model zoo, analysis representations,
// simulated runtimes and hardware, roofline analysis, power tuning,
// data viewer).
package proof

import (
	"context"
	"io"
	"strings"

	"proof/internal/advisor"
	"proof/internal/core"
	"proof/internal/dataviewer"
	"proof/internal/distributed"
	"proof/internal/graph"
	"proof/internal/graphops"
	"proof/internal/hardware"
	"proof/internal/hardware/characterize"
	"proof/internal/modelfmt"
	"proof/internal/models"
	"proof/internal/obs"
	"proof/internal/onnx"
	"proof/internal/power"
	"proof/internal/profsession"
	"proof/internal/roofline"
	"proof/internal/server"
)

// Options configures one profiling run. See core.Options.
type Options = core.Options

// Report is a complete profiling result.
type Report = core.Report

// LayerReport is the per-backend-layer result.
type LayerReport = core.LayerReport

// Mode selects predicted vs measured metrics.
type Mode = core.Mode

// Metric modes.
const (
	ModePredicted = core.ModePredicted
	ModeMeasured  = core.ModeMeasured
)

// ModelInfo describes a zoo model.
type ModelInfo = models.Info

// Platform describes a hardware platform.
type Platform = hardware.Platform

// Clocks is a DVFS clock configuration.
type Clocks = hardware.Clocks

// Graph is the model intermediate representation.
type Graph = graph.Graph

// DataType is a tensor element type.
type DataType = graph.DataType

// Tensor element types.
const (
	Float32 = graph.Float32
	Float16 = graph.Float16
	Int8    = graph.Int8
)

// RooflineModel is a set of roofline ceilings.
type RooflineModel = roofline.Model

// RooflinePoint is one roofline chart point.
type RooflinePoint = roofline.Point

// ProfileCtx runs the full PRoof pipeline: build → optimize on the
// backend → profile → layer mapping → metrics → roofline analysis. ctx
// is checked between pipeline stages, so an abandoned request (Ctrl-C,
// timed-out service call) stops doing work at the next stage boundary.
func ProfileCtx(ctx context.Context, opts Options) (*Report, error) {
	return core.ProfileCtx(ctx, opts)
}

// Session is a cached, deduplicated profiling front-end: repeated
// ProfileCtx calls with an identical configuration are served from a
// content-addressed LRU report store, and concurrent identical requests
// share one pipeline execution. The store keeps each report encoded, as
// one compact string, and every call returns a report the caller owns
// and may modify: a miss returns the pipeline's report, and a hit
// decodes the stored one afresh. ProfileOutcome also says how the
// request was served. See NewSession.
type Session = profsession.Session

// SessionStats is a snapshot of a Session's hit/miss/eviction/in-flight
// counters.
type SessionStats = profsession.Stats

// NewSession creates a profiling session with the given report-store
// capacity (<= 0 selects the default of 1024 reports).
func NewSession(capacity int) *Session { return profsession.New(capacity) }

// FingerprintOptions returns the key a Session caches a profiling
// configuration under, taken once every platform default is applied. It
// fails for a configuration the pipeline refuses: an unknown model,
// platform or backend, an unsupported model family, or an invalid batch
// or mode.
func FingerprintOptions(opts Options) (string, error) { return profsession.Fingerprint(opts) }

// CacheOutcome reports how a Session served one request: "hit", "miss"
// or "dedup".
type CacheOutcome = profsession.Outcome

// Server is the proofd HTTP profiling service (JSON API over a shared
// Session, admission control, request timeouts, graceful drain). See
// cmd/proofd and NewServer.
type Server = server.Server

// ServerConfig tunes a Server; the zero value selects serving-sane
// defaults.
type ServerConfig = server.Config

// NewServer constructs the proofd HTTP service. Serve it with
// (*Server).ListenAndServe(ctx, addr); cancelling ctx starts a graceful
// drain.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Tracer records the nested spans of one traced profiling run
// (pipeline stages, backend build internals, sweep fan-out workers).
// Install it with WithTracer; a context without a tracer profiles with
// zero overhead.
type Tracer = obs.Tracer

// Trace is a snapshot of a Tracer's finished spans; WriteChrome
// exports it in the Chrome trace-event format for Perfetto /
// chrome://tracing.
type Trace = obs.Trace

// NewTracer creates an enabled tracer; name labels the whole trace.
func NewTracer(name string) *Tracer { return obs.NewTracer(name) }

// WithTracer returns a context that records pipeline spans into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.WithTracer(ctx, t)
}

// MetricsRegistry is the shared counters/gauges/histograms registry
// (Prometheus text exposition) used by proofd and the CLIs.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Models lists the model zoo (all Table 3 models plus the peak test).
func Models() []ModelInfo { return models.List() }

// BuildModel constructs a zoo model graph at batch 1.
func BuildModel(key string) (*Graph, error) { return models.Build(key) }

// Platforms lists the evaluation hardware platforms (Table 2).
func Platforms() []*Platform { return hardware.List() }

// LookupPlatform returns a platform by key.
func LookupPlatform(key string) (*Platform, error) { return hardware.Get(key) }

// SaveModel writes a model graph to the JSON model format.
func SaveModel(g *Graph, w io.Writer) error { return modelfmt.Save(g, w) }

// LoadModel reads a model graph from the JSON model format.
func LoadModel(r io.Reader) (*Graph, error) { return modelfmt.Load(r) }

// LoadModelFile reads a model graph from a file path. Files ending in
// ".onnx" are parsed as ONNX protobuf; everything else as the JSON
// model format.
func LoadModelFile(path string) (*Graph, error) {
	if strings.HasSuffix(path, ".onnx") {
		return onnx.LoadFile(path)
	}
	return modelfmt.LoadFile(path)
}

// LoadONNX parses an ONNX model (protobuf ModelProto) from r.
func LoadONNX(r io.Reader) (*Graph, error) { return onnx.Load(r) }

// ExportONNX serializes a graph as ONNX protobuf bytes (structural
// export: weight payloads are omitted, small integer constants kept).
func ExportONNX(g *Graph) ([]byte, error) { return onnx.Export(g) }

// SaveModelFile writes a model graph to a path, choosing ONNX protobuf
// for ".onnx" and the JSON format otherwise.
func SaveModelFile(g *Graph, path string) error {
	if strings.HasSuffix(path, ".onnx") {
		return onnx.SaveFile(g, path)
	}
	return modelfmt.SaveFile(g, path)
}

// WriteText renders a report as text (summary, category shares, top
// layers).
func WriteText(w io.Writer, r *Report, topN int) { dataviewer.WriteText(w, r, topN) }

// WriteFullStackTrace renders the Figure 3 hierarchy: model design
// layer(s) -> backend layer -> kernels, with attributed latencies.
func WriteFullStackTrace(w io.Writer, r *Report, maxLayers int) {
	dataviewer.WriteFullStackTrace(w, r, maxLayers)
}

// AttributeKernel maps a kernel name back to the model-design layers
// responsible for it (the upward Figure 3 mapping).
func AttributeKernel(r *Report, kernelName string) (modelLayers []string, backendLayer string, ok bool) {
	return dataviewer.AttributeKernel(r, kernelName)
}

// OptimizeStats summarizes a graph-optimization run.
type OptimizeStats = graphops.OptimizeStats

// OptimizeGraph applies runtime-style cleanup passes in place: identity
// elimination, shape-chain constant folding, dead-node elimination.
func OptimizeGraph(g *Graph) (OptimizeStats, error) { return graphops.Optimize(g) }

// QuantizeInt8 converts a float model to the int8 deployment form with
// explicit QuantizeLinear/DequantizeLinear boundary nodes.
func QuantizeInt8(g *Graph) (int, error) { return graphops.QuantizeInt8(g) }

// BatchPoint is one point of a batch-size sweep.
type BatchPoint = core.BatchPoint

// PlatformResult is one row of a cross-platform sweep.
type PlatformResult = core.PlatformResult

// PlatformSweepCtx profiles a model on every platform at its default
// configuration and ranks the results by throughput — the deployment
// question behind Figure 4. When sess is non-nil the per-platform
// profiling points are served through its cache, so repeated sweeps
// over overlapping configurations are cheap.
func PlatformSweepCtx(ctx context.Context, model string, mode Mode, sess *Session) ([]PlatformResult, error) {
	return core.PlatformSweepCtx(ctx, model, mode, profileFunc(sess))
}

// profileFunc is sess's ProfileCtx, or the plain pipeline for a nil
// sess.
func profileFunc(sess *Session) core.ProfileFunc {
	if sess == nil {
		return core.ProfileCtx
	}
	return sess.ProfileCtx
}

// RunStats aggregates repeated profiling runs.
type RunStats = core.RunStats

// ProfileRunsCtx profiles the same configuration several times with
// different jitter seeds and reports latency statistics (best-of-N).
// When sess is non-nil the per-seed runs are served through its cache,
// so a repeated best-of-N over the same base configuration is fully
// cache-served.
func ProfileRunsCtx(ctx context.Context, opts Options, runs int, sess *Session) (*RunStats, error) {
	return core.ProfileRunsCtx(ctx, opts, runs, profileFunc(sess))
}

// OptimalBatchCtx sweeps batch sizes and returns the throughput-optimal
// one (how the paper picks the Table 5 batch sizes). nil candidates =
// powers of two up to 2048. When sess is non-nil the batch points are
// served through its cache.
func OptimalBatchCtx(ctx context.Context, opts Options, candidates []int, sess *Session) (int, []BatchPoint, error) {
	return core.OptimalBatchCtx(ctx, opts, candidates, profileFunc(sess))
}

// DistributedOptions configures a data-parallel profiling run (§5
// future work: adapting PRoof to distributed environments).
type DistributedOptions = distributed.Options

// DistributedResult is a data-parallel profiling result.
type DistributedResult = distributed.Result

// ScalingPoint is one point of a device-scaling curve.
type ScalingPoint = distributed.ScalingPoint

// ProfileDistributed simulates data-parallel inference of a global
// batch across N identical devices. When sess is non-nil the device
// profile is served through its cache.
func ProfileDistributed(ctx context.Context, opts DistributedOptions, sess *Session) (*DistributedResult, error) {
	return distributed.Profile(ctx, opts, profileFunc(sess))
}

// DistributedScalingCurve sweeps device counts and reports throughput
// and scaling efficiency. When sess is non-nil the device profiles are
// served through its cache.
func DistributedScalingCurve(ctx context.Context, opts DistributedOptions, deviceCounts []int, sess *Session) ([]ScalingPoint, error) {
	return distributed.ScalingCurve(ctx, opts, deviceCounts, profileFunc(sess))
}

// RenderHTML renders a report as a self-contained HTML page with SVG
// roofline charts.
func RenderHTML(r *Report) string { return dataviewer.ReportHTML(r) }

// WriteCSV exports the per-layer results as CSV.
func WriteCSV(w io.Writer, r *Report) error { return dataviewer.WriteCSV(w, r) }

// WriteChromeTrace exports the profiled timeline in the Chrome
// trace-event format for chrome://tracing / Perfetto.
func WriteChromeTrace(w io.Writer, r *Report) error { return dataviewer.WriteChromeTrace(w, r) }

// CompareReports renders a side-by-side summary of two reports.
func CompareReports(w io.Writer, label1 string, r1 *Report, label2 string, r2 *Report) {
	dataviewer.CompareReports(w, label1, r1, label2, r2)
}

// RooflineSVG renders a roofline chart for arbitrary points.
func RooflineSVG(m RooflineModel, points []RooflinePoint, title string) string {
	return dataviewer.RooflineSVG(m, points, dataviewer.ChartOptions{Title: title})
}

// ParseDataType converts a data type name ("fp16", "int8", ...).
func ParseDataType(s string) (DataType, error) { return graph.ParseDataType(s) }

// Finding is one advisor finding.
type Finding = advisor.Finding

// Advise turns a report into optimization guidance, automating the
// paper's §4.3-§4.6 insights (memory-bound models, depth-wise
// convolutions, data-movement-dominated latency, overhead-bound
// batches, roofline headroom).
func Advise(r *Report) []Finding { return advisor.Analyze(r) }

// WriteFindings renders advisor findings as text.
func WriteFindings(w io.Writer, findings []Finding) { advisor.WriteFindings(w, findings) }

// PowerProfile is an nvpmodel-style clock/power profile.
type PowerProfile = power.Profile

// PowerResult is a workload evaluation under a power profile.
type PowerResult = power.WorkloadResult

// TuneResult is the outcome of the clock-tuning workflow (§4.6).
type TuneResult = power.TuneResult

// PeakResult is an achieved roofline peak measurement.
type PeakResult = roofline.PeakResult

// StockPowerProfiles returns the platform's built-in nvpmodel profiles
// (Jetson Orin NX: MAXN, 15W, 25W).
func StockPowerProfiles() []PowerProfile { return power.StockProfiles() }

// EvaluatePowerProfile profiles a workload under a clock profile and
// returns latency and power. When sess is non-nil the profile is
// served through its cache.
func EvaluatePowerProfile(ctx context.Context, platform, model string, batch int, dt DataType, p PowerProfile, sess *Session) (PowerResult, error) {
	return power.EvaluateProfile(ctx, platform, model, batch, dt, p, profileFunc(sess))
}

// TuneClocks runs the §4.6 tuning workflow: pick the memory clock via
// roofline bandwidth-line analysis, then binary-search the GPU clock
// under the power budget. When sess is non-nil every profile the
// workflow runs is served through its cache.
func TuneClocks(ctx context.Context, platform, model string, batch int, dt DataType, budgetW, affectedThreshold float64, sess *Session) (*TuneResult, error) {
	return power.Tune(ctx, platform, model, batch, dt, budgetW, affectedThreshold, profileFunc(sess))
}

// MeasurePeakCtx measures the achieved roofline peak of a platform
// with the §4.6 pseudo model (MatMul and memory-copy operators),
// honoring ctx cancellation between pseudo-model stages.
func MeasurePeakCtx(ctx context.Context, platform string, dt DataType, clk Clocks) (PeakResult, error) {
	plat, err := hardware.Get(platform)
	if err != nil {
		return PeakResult{}, err
	}
	return roofline.MeasurePeak(ctx, plat, dt, clk, 1)
}

// Calibration is the measured characterization of one platform's
// achievable ceilings (see internal/hardware/characterize).
type Calibration = hardware.Calibration

// CalibrationFile is the on-disk calibration.json format.
type CalibrationFile = hardware.CalibrationFile

// CharacterizeOptions tunes a characterization run.
type CharacterizeOptions = characterize.Options

// CharacterizeResult is the per-platform characterization outcome.
type CharacterizeResult = characterize.Result

// CharacterizePlatform runs the characterization protocol — the
// kernel-launch ladder, strided-copy sweep and MatMul ladder that
// derive the platform's achievable ceilings from micro-benchmarks run
// through its backend — against one platform.
func CharacterizePlatform(ctx context.Context, platform string, opts CharacterizeOptions) (*CharacterizeResult, error) {
	plat, err := hardware.Get(platform)
	if err != nil {
		return nil, err
	}
	return characterize.Platform(ctx, plat, opts)
}

// CharacterizeAll characterizes every platform and returns the
// calibration file `proof characterize` writes.
func CharacterizeAll(ctx context.Context, opts CharacterizeOptions) (*CalibrationFile, []*CharacterizeResult, error) {
	return characterize.All(ctx, opts)
}
