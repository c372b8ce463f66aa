// Package roofline implements the roofline model [Williams et al. 2009]
// as PRoof applies it to DNN inference: ceiling construction per
// platform/data-type/clock, end-to-end and layer-wise analysis points
// (arithmetic intensity vs attained FLOP/s), bound classification, and
// the achieved-peak measurement of §4.6 that runs the assembled pseudo
// model of MatMul and memory-copy operators through a backend.
package roofline

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/jsonwrite"
)

// Model is the set of roofline ceilings for one platform configuration.
type Model struct {
	// Platform and DType identify the configuration.
	Platform string `json:"platform"`
	DType    string `json:"dtype"`
	// PeakFLOPS is the achievable compute ceiling (FLOP/s).
	PeakFLOPS float64 `json:"peak_flops"`
	// PeakBW is the achievable memory bandwidth ceiling (B/s).
	PeakBW float64 `json:"peak_bw"`
	// TheoreticalFLOPS / TheoreticalBW are the datasheet values.
	TheoreticalFLOPS float64 `json:"theoretical_flops"`
	TheoreticalBW    float64 `json:"theoretical_bw"`
	// ExtraBWLines optionally adds bandwidth ceilings for alternative
	// memory clocks (the yellow/red lines of Figure 8).
	ExtraBWLines []BWLine `json:"extra_bw_lines,omitempty"`
}

// BWLine is an additional bandwidth ceiling annotation.
type BWLine struct {
	// Label describes the line (e.g. "EMC 2133 MHz").
	Label string `json:"label"`
	// BW is the bandwidth in B/s.
	BW float64 `json:"bw"`
}

// NewModel builds the roofline ceilings for a platform, data type and
// clock configuration (the pipeline passes clocks resolved by
// hardware.Platform.ResolveClocks; an unset clock reads as its maximum
// here too). The ceilings come from the platform's achievable-ceiling
// derivation — measured calibration when `proof characterize` has
// produced one, hand-tuned factors otherwise — and the bandwidth roof
// is capped by the GPU-clock-bound issue limit, matching what the
// simulated hardware can actually attain at down-clocked
// configurations (Table 6 #1 vs #3).
func NewModel(plat *hardware.Platform, dt graph.DataType, clk hardware.Clocks) Model {
	return Model{
		Platform:         plat.Key,
		DType:            dt.String(),
		PeakFLOPS:        plat.ComputeCeiling(dt, clk),
		PeakBW:           plat.BWCeiling(clk),
		TheoreticalFLOPS: plat.PeakAt(dt, clk.GPUMHz),
		TheoreticalBW:    plat.BWAt(clk.EMCMHz),
	}
}

// RidgeAI is the arithmetic intensity where the two ceilings meet.
//
//lint:hotpath
func (m Model) RidgeAI() float64 {
	if m.PeakBW == 0 {
		return math.Inf(1)
	}
	return m.PeakFLOPS / m.PeakBW
}

// AttainableFLOPS returns the roofline ceiling at a given arithmetic
// intensity: min(peak, AI x BW). An infinite intensity sits under the
// flat compute roof (guarding the Inf x 0 = NaN case when PeakBW is
// also degenerate).
//
//lint:hotpath
func (m Model) AttainableFLOPS(ai float64) float64 {
	if math.IsInf(ai, 1) {
		return m.PeakFLOPS
	}
	return math.Min(m.PeakFLOPS, ai*m.PeakBW)
}

// Point is one entity on a roofline chart: a whole model (end-to-end
// analysis, Figure 4) or one backend layer (layer-wise analysis,
// Figures 5, 6, 8).
type Point struct {
	// Name identifies the model or backend layer.
	Name string `json:"name"`
	// AI is the arithmetic intensity in FLOP/byte.
	AI float64 `json:"ai"`
	// FLOPS is the attained FLOP/s.
	FLOPS float64 `json:"flops"`
	// Bandwidth is the attained DRAM bandwidth in B/s.
	Bandwidth float64 `json:"bandwidth"`
	// Latency is the measured latency.
	Latency time.Duration `json:"latency_ns"`
	// Share is the latency share within the model (the opacity of
	// Figure 5's points).
	Share float64 `json:"share"`
	// FLOP and Bytes are the totals behind the rates.
	FLOP  int64 `json:"flop"`
	Bytes int64 `json:"bytes"`
	// Category tags the point for chart coloring ("dwconv", "pwconv",
	// "matmul", "transpose", "copy", ...).
	Category string `json:"category,omitempty"`
	// Bound is the classification against the ceilings: "memory",
	// "compute" or "ridge".
	Bound string `json:"bound"`
}

// AppendJSON appends the point's JSON encoding to b, byte-identical to
// encoding/json's form of the struct (same order, same tags, same
// escaping) but with a nullable AI: a zero-byte point carries
// AI = +Inf, which encoding/json cannot represent — without this, one
// such layer would turn a whole valid report into an encoding error at
// the service edge. Like encoding/json, it refuses a non-finite FLOPS,
// Bandwidth or Share; on failure it returns b unchanged.
func (p Point) AppendJSON(b []byte) ([]byte, error) {
	if !jsonwrite.Finite(p.FLOPS) || !jsonwrite.Finite(p.Bandwidth) || !jsonwrite.Finite(p.Share) {
		return b, fmt.Errorf("roofline: point %q: non-finite flops %v, bandwidth %v or share %v",
			p.Name, p.FLOPS, p.Bandwidth, p.Share)
	}
	b = append(b, `{"name":`...)
	b = jsonwrite.String(b, p.Name)
	b = append(b, `,"ai":`...)
	if jsonwrite.Finite(p.AI) {
		b = jsonwrite.Float(b, p.AI)
	} else {
		b = append(b, "null"...)
	}
	b = append(b, `,"flops":`...)
	b = jsonwrite.Float(b, p.FLOPS)
	b = append(b, `,"bandwidth":`...)
	b = jsonwrite.Float(b, p.Bandwidth)
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, int64(p.Latency), 10)
	b = append(b, `,"share":`...)
	b = jsonwrite.Float(b, p.Share)
	b = append(b, `,"flop":`...)
	b = strconv.AppendInt(b, p.FLOP, 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, p.Bytes, 10)
	if p.Category != "" {
		b = append(b, `,"category":`...)
		b = jsonwrite.String(b, p.Category)
	}
	b = append(b, `,"bound":`...)
	b = jsonwrite.String(b, p.Bound)
	return append(b, '}'), nil
}

// MarshalJSON is AppendJSON for encoding/json's reflective callers. A
// report does not come through here: core.Report.AppendJSON encodes its
// points directly, with no copy and no re-compaction.
func (p Point) MarshalJSON() ([]byte, error) {
	// A point with a usual name fits the stack buffer; the result is
	// copied out once, at its length.
	var buf [320]byte
	b, err := p.AppendJSON(buf[:0])
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// AppendJSON appends the ceiling set's JSON encoding to b, exactly as
// encoding/json writes the struct. Like encoding/json, it refuses a
// non-finite ceiling or bandwidth line; on failure it returns b
// unchanged.
func (m Model) AppendJSON(b []byte) ([]byte, error) {
	if !jsonwrite.Finite(m.PeakFLOPS) || !jsonwrite.Finite(m.PeakBW) ||
		!jsonwrite.Finite(m.TheoreticalFLOPS) || !jsonwrite.Finite(m.TheoreticalBW) {
		return b, fmt.Errorf("roofline: ceilings %s/%s: non-finite peak_flops %v, peak_bw %v, theoretical_flops %v or theoretical_bw %v",
			m.Platform, m.DType, m.PeakFLOPS, m.PeakBW, m.TheoreticalFLOPS, m.TheoreticalBW)
	}
	for _, l := range m.ExtraBWLines {
		if !jsonwrite.Finite(l.BW) {
			return b, fmt.Errorf("roofline: ceilings %s/%s: non-finite bw %v of line %q", m.Platform, m.DType, l.BW, l.Label)
		}
	}
	b = append(b, `{"platform":`...)
	b = jsonwrite.String(b, m.Platform)
	b = append(b, `,"dtype":`...)
	b = jsonwrite.String(b, m.DType)
	b = append(b, `,"peak_flops":`...)
	b = jsonwrite.Float(b, m.PeakFLOPS)
	b = append(b, `,"peak_bw":`...)
	b = jsonwrite.Float(b, m.PeakBW)
	b = append(b, `,"theoretical_flops":`...)
	b = jsonwrite.Float(b, m.TheoreticalFLOPS)
	b = append(b, `,"theoretical_bw":`...)
	b = jsonwrite.Float(b, m.TheoreticalBW)
	if len(m.ExtraBWLines) > 0 {
		b = append(b, `,"extra_bw_lines":[`...)
		for i, l := range m.ExtraBWLines {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"label":`...)
			b = jsonwrite.String(b, l.Label)
			b = append(b, `,"bw":`...)
			b = jsonwrite.Float(b, l.BW)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// NewPoint derives a roofline point from raw measurements. A point
// with memory traffic but no arithmetic (flop == 0, bytes > 0) has
// AI 0 and classifies memory-bound; a point with arithmetic but zero
// traffic (flop > 0, bytes == 0) has infinite intensity and classifies
// compute-bound — the bandwidth ceiling can never bind it. A point
// with neither stays at the neutral "ridge" label: there is no work to
// position against either ceiling.
//
//lint:hotpath
func NewPoint(name string, flop, bytes int64, latency time.Duration, m Model) Point {
	p := Point{Name: name, FLOP: flop, Bytes: bytes, Latency: latency}
	sec := latency.Seconds()
	if sec > 0 {
		p.FLOPS = float64(flop) / sec
		p.Bandwidth = float64(bytes) / sec
	}
	switch {
	case bytes > 0:
		p.AI = float64(flop) / float64(bytes)
	case flop > 0:
		p.AI = math.Inf(1)
	default:
		p.Bound = "ridge"
		return p
	}
	p.Bound = m.ClassifyBound(p.AI)
	return p
}

// ClassifyBound reports whether an arithmetic intensity is left of the
// ridge (memory-bound), right of it (compute-bound) or at it (within
// ±5%). Degenerate ceilings classify against the one ceiling that
// exists: with no compute roof every finite-intensity point is
// positioned against the bandwidth line ("memory"), with no bandwidth
// line everything is under the compute roof ("compute"), and with
// neither there is nothing to classify against ("ridge"). An infinite
// intensity (zero memory traffic) is always compute-bound.
//
//lint:hotpath
func (m Model) ClassifyBound(ai float64) string {
	switch {
	case m.PeakFLOPS == 0 && m.PeakBW == 0:
		return "ridge"
	case m.PeakFLOPS == 0:
		return "memory"
	case m.PeakBW == 0:
		return "compute"
	case math.IsInf(ai, 1):
		return "compute"
	}
	ridge := m.RidgeAI()
	switch {
	case ai < ridge*0.95:
		return "memory"
	case ai > ridge*1.05:
		return "compute"
	}
	return "ridge"
}

// Efficiency returns the point's attained fraction of the roofline
// ceiling at its arithmetic intensity.
//
//lint:hotpath
func (m Model) Efficiency(p Point) float64 {
	ceiling := m.AttainableFLOPS(p.AI)
	if ceiling == 0 {
		return 0
	}
	return p.FLOPS / ceiling
}

// Totals aggregates a layer-wise analysis: Add each layer's point in
// execution order, then read each layer's latency share and the
// whole-model point (Figure 4). It keeps no points, so a caller that
// holds them elsewhere (a report's layers) aggregates them in place.
type Totals struct {
	// FLOP and Bytes sum the layers' totals.
	FLOP, Bytes int64
	// Latency sums the layers' latencies.
	Latency time.Duration
}

// Add counts one layer's point. FLOP and bytes sum through
// graph.AddCount: a total that overflows int64, or a negative figure,
// leaves it negative.
//
//lint:hotpath
func (t *Totals) Add(p *Point) {
	t.FLOP = graph.AddCount(t.FLOP, p.FLOP)
	t.Bytes = graph.AddCount(t.Bytes, p.Bytes)
	t.Latency += p.Latency
}

// Share is a layer latency's share of the total latency, or 0 while
// the total is 0.
//
//lint:hotpath
func (t *Totals) Share(latency time.Duration) float64 {
	if t.Latency == 0 {
		return 0
	}
	return latency.Seconds() / t.Latency.Seconds()
}

// EndToEnd aggregates the layers into one whole-model point under m.
//
//lint:hotpath
func (t *Totals) EndToEnd(name string, m Model) Point {
	return NewPoint(name, t.FLOP, t.Bytes, t.Latency, m)
}

func (m Model) String() string {
	return fmt.Sprintf("roofline{%s/%s: %.2f TFLOP/s, %.1f GB/s, ridge %.1f}",
		m.Platform, m.DType, m.PeakFLOPS/1e12, m.PeakBW/1e9, m.RidgeAI())
}
