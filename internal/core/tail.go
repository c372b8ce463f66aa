package core

import (
	"fmt"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/ncusim"
	"proof/internal/roofline"
	"proof/internal/sim"
)

// layerSource is what the pipeline has built by the time its tail runs:
// the engine and its layer mapping, the representations predicted
// metrics derive from, the roofline ceilings, and the counter
// measurements in measured mode.
type layerSource struct {
	eng     *backend.Engine
	mapping backend.Mapping
	opt     *analysis.OptimizedRep
	rep     *analysis.Rep
	// dtype is the data type the model runs at: quantized graphs run
	// int8 whatever the requested type.
	dtype graph.DataType
	rl    roofline.Model
	// measured holds ncusim's per-layer results in execution order; nil
	// in predicted mode. overhead is the counter replay's cost.
	measured []ncusim.LayerMeasurement
	overhead time.Duration
	seed     uint64
}

// layerFigures is what the tail finds out about one backend layer
// beyond its names: its simulated timing, and its FLOP, bytes and chart
// category.
type layerFigures struct {
	timing      sim.Timing
	flop, bytes int64
	category    string
}

// figures profiles backend layer i: its simulated timing, plus FLOP,
// bytes and chart category — counter-measured in measured mode,
// predicted from the mapped model structure otherwise. The tail has
// already rejected unmapped non-reformat layers in predicted mode.
func (s *layerSource) figures(i int, bl *backend.Layer) (layerFigures, error) {
	f := layerFigures{timing: s.eng.LayerTiming(i, s.seed), category: "copy"}
	layer := s.mapping[i]
	switch {
	case s.measured != nil:
		f.flop, f.bytes = s.measured[i].CorrectedFLOP, s.measured[i].Bytes
		if layer != nil {
			f.category = categorize(layer, s.rep.Graph)
		}
	case bl.IsReformat:
		// Predicted reformat traffic: one read + one write of the
		// converted tensor.
		if t := s.rep.Graph.Tensor(bl.InputTensors[0]); t != nil {
			f.bytes = graph.MulCount(2, t.Bytes())
		}
	default:
		c, err := s.opt.LayerCost(layer)
		if err != nil {
			return layerFigures{}, err
		}
		f.flop, f.bytes = c.FLOP, c.MemoryBytes()
		f.category = categorize(layer, s.rep.Graph)
	}
	return f, nil
}

// tail is the pipeline's last stage and the only place the pipeline
// writes a Report's layers. In one pass over the backend layers, in
// execution order, it writes each LayerReport from the layer's
// identity, its figures and their roofline point, and sums the layers;
// finish then derives the shares, the end-to-end point, throughput,
// utilization and power. Every layer's original-node names and op
// types go into one []string and every kernel into one array, both
// sized before they are filled; each layer holds a capped sub-slice of
// them.
func (s *layerSource) tail(r *Resolved) (*Report, error) {
	params := s.rep.Graph.ParamCount()
	if params < 0 {
		return nil, s.rep.Graph.OverflowDefect("", "the model's parameter count")
	}
	layers := s.eng.Layers()
	var nNames, nKernels int
	var opTypes [16]string
	for i := range layers {
		if layer := s.mapping[i]; layer != nil {
			nNames += len(layer.OriginalNodes()) + len(layer.AppendOpTypes(opTypes[:0]))
		}
		nKernels += len(layers[i].Kernels)
	}
	names := make([]string, 0, nNames)
	kernels := make([]KernelReport, nKernels)
	report := &Report{
		Model:             r.Model,
		Platform:          r.Plat.Key,
		Backend:           r.Backend,
		Batch:             r.Batch,
		DType:             s.dtype.String(),
		Mode:              r.Mode,
		Roofline:          s.rl,
		Layers:            make([]LayerReport, len(layers)),
		ProfilingOverhead: s.overhead,
		NodeCount:         s.rep.NodeCount(),
		ParamsM:           float64(params) / 1e6,
	}
	var sums layerSums
	for i := range layers {
		bl := &layers[i]
		layer := s.mapping[i]
		// Measured mode takes its metrics from the counters and accepts
		// unmapped layers.
		if s.measured == nil && !bl.IsReformat && layer == nil {
			return nil, fmt.Errorf("core: no mapping for backend layer %q", bl.Name)
		}
		f, err := s.figures(i, bl)
		if err != nil {
			return nil, err
		}
		lr := &report.Layers[i]
		lr.Name, lr.IsReformat = bl.Name, bl.IsReformat
		if layer != nil {
			start := len(names)
			for _, n := range layer.OriginalNodes() {
				names = append(names, n.Name)
			}
			lr.OriginalNodes = names[start:len(names):len(names)]
			start = len(names)
			names = layer.AppendOpTypes(names)
			lr.OpTypes = names[start:len(names):len(names)]
		}
		if n := len(bl.Kernels); n > 0 {
			lr.Kernels, kernels = kernels[:n:n], kernels[n:]
			for j, k := range bl.Kernels {
				lr.Kernels[j] = KernelReport{
					Name:    k.Name,
					Latency: time.Duration(float64(f.timing.Latency) * k.ShareOfLayer),
				}
			}
		}
		sums.add(lr, &f, s.rl)
	}
	// The one checked sum over every layer, reformats included: a
	// figure that overflowed, or a total that does, reads negative.
	if sums.totals.FLOP < 0 || sums.totals.Bytes < 0 {
		return nil, s.rep.Graph.OverflowDefect("", "the model's end-to-end FLOP or traffic")
	}
	report.finish(&sums, r)
	return report, nil
}

// layerSums accumulates a report's layers: the end-to-end totals and
// the aggregate utilization, summed in layer order.
type layerSums struct {
	totals roofline.Totals
	util   sim.Utilization
}

// add writes lr's category, execution bound and roofline point against
// rl from f, and counts the layer.
//
//lint:hotpath
func (s *layerSums) add(lr *LayerReport, f *layerFigures, rl roofline.Model) {
	lr.Category, lr.ExecutionBound = f.category, f.timing.Bound
	lr.Point = roofline.NewPoint(lr.Name, f.flop, f.bytes, f.timing.Latency, rl)
	lr.Point.Category = f.category
	s.totals.Add(&lr.Point)
	s.util.Add(f.timing.Latency, f.timing.ComputeTime, f.timing.MemoryTime)
}

// finish completes a report whose layers s has counted: each layer's
// latency share, the end-to-end point, total latency, throughput at
// report.Batch, aggregate utilization and, on a platform with a power
// model, the power estimate at r's clocks.
func (report *Report) finish(s *layerSums, r *Resolved) {
	for i := range report.Layers {
		p := &report.Layers[i].Point
		p.Share = s.totals.Share(p.Latency)
	}
	report.EndToEnd = s.totals.EndToEnd(report.Model, report.Roofline)
	report.TotalLatency = s.totals.Latency
	if s.totals.Latency > 0 {
		report.Throughput = float64(report.Batch) / s.totals.Latency.Seconds()
	}
	report.UtilCompute, report.UtilMem = s.util.Fractions()
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
}
