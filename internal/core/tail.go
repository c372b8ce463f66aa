package core

import (
	"fmt"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/memo"
	"proof/internal/ncusim"
	"proof/internal/roofline"
	"proof/internal/sim"
)

// The pipeline tail is the same two steps for every run: resolveUnits
// turns the built engine into the point's memo.Plan, one layer identity
// and memo.Unit per backend layer, and assemble turns the plan into the
// Report. A memo plan hit has the plan already and runs only assemble,
// so memoized and unmemoized reports match by construction.

// layerSource is what the full pipeline has built by the time its tail
// runs: the engine and its layer mapping, the representations predicted
// metrics derive from, and the counter measurements in measured mode.
type layerSource struct {
	eng     *backend.Engine
	mapping backend.Mapping
	opt     *analysis.OptimizedRep
	rep     *analysis.Rep
	// measured holds ncusim's per-layer results in execution order; nil
	// in predicted mode.
	measured []ncusim.LayerMeasurement
	seed     uint64
}

// unit profiles backend layer i: its simulated timing, plus FLOP, bytes
// and chart category — counter-measured in measured mode, predicted
// from the mapped model structure otherwise. resolveUnits has already
// rejected unmapped non-reformat layers in predicted mode.
func (s *layerSource) unit(i int, bl backend.Layer) (memo.Unit, error) {
	t := s.eng.LayerTiming(i, s.seed)
	u := memo.Unit{
		Latency:        t.Latency,
		ComputeTime:    t.ComputeTime,
		MemoryTime:     t.MemoryTime,
		ExecutionBound: t.Bound,
		Category:       "copy",
	}
	layer := s.mapping[i]
	switch {
	case s.measured != nil:
		u.FLOP, u.Bytes = s.measured[i].CorrectedFLOP, s.measured[i].Bytes
		if layer != nil {
			u.Category = categorize(layer, s.rep.Graph)
		}
	case bl.IsReformat:
		// Predicted reformat traffic: one read + one write of the
		// converted tensor.
		if t := s.rep.Graph.Tensor(bl.InputTensors[0]); t != nil {
			u.Bytes = 2 * t.Bytes()
		}
	default:
		c, err := s.opt.LayerCost(layer)
		if err != nil {
			return memo.Unit{}, err
		}
		u.FLOP, u.Bytes = c.FLOP, c.MemoryBytes()
		u.Category = categorize(layer, s.rep.Graph)
	}
	return u, nil
}

// resolveUnits is the tail's first step. It fills plan.Layers with
// each backend layer's identity and profiled unit, in execution order.
// Every layer's original-node names and op types go into one []string
// and every kernel into one array, both sized before they are filled;
// each layer holds a capped sub-slice of them.
func resolveUnits(src *layerSource, plan *memo.Plan) error {
	layers := src.eng.Layers()
	var nNames, nKernels int
	var opTypes [16]string
	for i, bl := range layers {
		if layer := src.mapping[i]; layer != nil {
			nNames += len(layer.OriginalNodes()) + len(layer.AppendOpTypes(opTypes[:0]))
		}
		nKernels += len(bl.Kernels)
	}
	names := make([]string, 0, nNames)
	kernels := make([]memo.PlanKernel, 0, nKernels)
	plan.Layers = make([]memo.PlanLayer, len(layers))
	for i, bl := range layers {
		layer := src.mapping[i]
		// Measured mode takes its metrics from the counters and accepts
		// unmapped layers.
		if src.measured == nil && !bl.IsReformat && layer == nil {
			return fmt.Errorf("core: no mapping for backend layer %q", bl.Name)
		}
		pl := &plan.Layers[i]
		pl.Name, pl.IsReformat = bl.Name, bl.IsReformat
		if layer != nil {
			start := len(names)
			for _, n := range layer.OriginalNodes() {
				names = append(names, n.Name)
			}
			pl.OriginalNodes = names[start:len(names):len(names)]
			start = len(names)
			names = layer.AppendOpTypes(names)
			pl.OpTypes = names[start:len(names):len(names)]
		}
		if len(bl.Kernels) > 0 {
			start := len(kernels)
			for _, k := range bl.Kernels {
				kernels = append(kernels, memo.PlanKernel{Name: k.Name, Share: k.ShareOfLayer})
			}
			pl.Kernels = kernels[start:len(kernels):len(kernels)]
		}
		var err error
		if pl.Unit, err = src.unit(i, bl); err != nil {
			return err
		}
	}
	return nil
}

// assemble is the tail's second step and the only place a Report's
// layers are built: per-layer roofline points and kernel latencies,
// latency shares, the end-to-end point, throughput, aggregate
// utilization and the power estimate. The configuration comes from r,
// under whose key plan is stored. It owns plan: the report takes over
// the plan's name lists instead of copying them, so a plan a memo store
// keeps is assembled only through a Clone. Every layer's kernels go
// into one array, each layer holding a capped sub-slice.
func assemble(plan *memo.Plan, rl roofline.Model, r *Resolved) *Report {
	report := &Report{
		Model:     r.Model,
		Platform:  r.Plat.Key,
		Backend:   r.Backend,
		Batch:     r.Batch,
		DType:     plan.EffectiveDType.String(),
		Mode:      r.Mode,
		Roofline:  rl,
		NodeCount: plan.NodeCount,
		ParamsM:   plan.ParamsM,
		Layers:    make([]LayerReport, len(plan.Layers)),
	}
	var nKernels int
	for i := range plan.Layers {
		nKernels += len(plan.Layers[i].Kernels)
	}
	report.fillLayers(plan, make([]KernelReport, nKernels))
	if r.Plat.Power != nil {
		// Activity model: a GPU executing kernels draws most of its
		// load power whether the kernels are compute- or memory-
		// bound; the compute fraction modulates the rest. Severe
		// memory starvation (everything stalls on DRAM) is the only
		// regime where draw collapses (Table 7 #6).
		denom := report.UtilCompute + report.UtilMem
		cf := 0.5
		if denom > 0 {
			cf = report.UtilCompute / denom
		}
		utilGPU := 0.78 + 0.22*cf
		utilMem := 0.60 + 0.40*(1-cf)
		if w, err := r.Plat.EstimatePower(r.Clocks, utilGPU, utilMem); err == nil {
			report.PowerW = w
		}
	}
	return report
}

// fillLayers is assemble's per-layer loop. It writes each of plan's
// layers into report.Layers, which has one entry per plan layer, with
// its roofline point against report.Roofline, its latency share and
// its kernels, carved from kernels; then the end-to-end point, total
// latency, throughput at report.Batch, and aggregate utilization
// (sim.Utilization). It allocates nothing.
//
//lint:hotpath
func (report *Report) fillLayers(plan *memo.Plan, kernels []KernelReport) {
	rl := report.Roofline
	var totals roofline.Totals
	var util sim.Utilization
	for i := range plan.Layers {
		pl := &plan.Layers[i]
		unit := &pl.Unit
		lr := &report.Layers[i]
		*lr = LayerReport{
			Name:           pl.Name,
			IsReformat:     pl.IsReformat,
			OriginalNodes:  pl.OriginalNodes,
			OpTypes:        pl.OpTypes,
			Category:       unit.Category,
			Point:          roofline.NewPoint(pl.Name, unit.FLOP, unit.Bytes, unit.Latency, rl),
			ExecutionBound: unit.ExecutionBound,
		}
		lr.Point.Category = unit.Category
		if n := len(pl.Kernels); n > 0 {
			lr.Kernels, kernels = kernels[:n:n], kernels[n:]
			for j, k := range pl.Kernels {
				lr.Kernels[j] = KernelReport{
					Name:    k.Name,
					Latency: time.Duration(float64(unit.Latency) * k.Share),
				}
			}
		}
		totals.Add(&lr.Point)
		util.Add(unit.Latency, unit.ComputeTime, unit.MemoryTime)
	}
	for i := range report.Layers {
		p := &report.Layers[i].Point
		p.Share = totals.Share(p.Latency)
	}
	report.EndToEnd = totals.EndToEnd(report.Model, rl)
	report.TotalLatency = totals.Latency
	if totals.Latency > 0 {
		report.Throughput = float64(report.Batch) / totals.Latency.Seconds()
	}
	report.UtilCompute, report.UtilMem = util.Fractions()
}
