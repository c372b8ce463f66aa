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
	"unicode/utf8"

	"proof/internal/graph"
	"proof/internal/hardware"
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
// clock configuration (zero clocks = platform maximum). The ceilings
// come from the platform's achievable-ceiling derivation — measured
// calibration when `proof characterize` has produced one, hand-tuned
// factors otherwise — and the bandwidth roof is capped by the
// GPU-clock-bound issue limit, matching what the simulated hardware
// can actually attain at down-clocked configurations (Table 6 #1 vs
// #3).
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

// MarshalJSON renders the point with a nullable AI: a zero-byte point
// carries AI = +Inf, which encoding/json cannot represent — without
// this, one such layer would turn a whole valid report into an
// encoding error at the service edge. Every other field is appended
// directly, byte-identical to encoding/json's form of the struct
// (same order, same tags, same escaping); like encoding/json, it
// refuses a non-finite FLOPS, Bandwidth or Share.
func (p Point) MarshalJSON() ([]byte, error) {
	if !finite(p.FLOPS) || !finite(p.Bandwidth) || !finite(p.Share) {
		return nil, fmt.Errorf("roofline: point %q: non-finite flops %v, bandwidth %v or share %v",
			p.Name, p.FLOPS, p.Bandwidth, p.Share)
	}
	// A point with a usual name fits the stack buffer; the result is
	// copied out once, at its length.
	var buf [320]byte
	b := append(buf[:0], `{"name":`...)
	b = appendString(b, p.Name)
	b = append(b, `,"ai":`...)
	if finite(p.AI) {
		b = appendFloat(b, p.AI)
	} else {
		b = append(b, "null"...)
	}
	b = append(b, `,"flops":`...)
	b = appendFloat(b, p.FLOPS)
	b = append(b, `,"bandwidth":`...)
	b = appendFloat(b, p.Bandwidth)
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, int64(p.Latency), 10)
	b = append(b, `,"share":`...)
	b = appendFloat(b, p.Share)
	b = append(b, `,"flop":`...)
	b = strconv.AppendInt(b, p.FLOP, 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, p.Bytes, 10)
	if p.Category != "" {
		b = append(b, `,"category":`...)
		b = appendString(b, p.Category)
	}
	b = append(b, `,"bound":`...)
	b = appendString(b, p.Bound)
	b = append(b, '}')
	return append([]byte(nil), b...), nil
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat appends a finite f as encoding/json encodes a float64:
// the shortest form that round-trips, in exponent notation below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: '"' and '\\' and the control bytes escaped (short forms
// for \b, \f, \n, \r and \t), '<', '>' and '&' as \u003c, \u003e and
// \u0026, U+2028 and U+2029 escaped, and each invalid UTF-8 byte as
// \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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

// LayerWise is a layer-granularity roofline analysis.
type LayerWise struct {
	// Model is the ceiling set.
	Model Model `json:"model"`
	// Points are the per-layer points in execution order.
	Points []Point `json:"points"`
}

// TotalLatency sums the layer latencies.
//
//lint:hotpath
func (lw *LayerWise) TotalLatency() time.Duration {
	var total time.Duration
	for _, p := range lw.Points {
		total += p.Latency
	}
	return total
}

// FillShares computes each point's latency share of the total.
//
//lint:hotpath
func (lw *LayerWise) FillShares() {
	total := lw.TotalLatency().Seconds()
	if total == 0 {
		return
	}
	for i := range lw.Points {
		lw.Points[i].Share = lw.Points[i].Latency.Seconds() / total
	}
}

// ShareByCategory aggregates latency share per category — the basis of
// statements like "transpose and data-copy layers take the most time"
// (§4.5) or "depth-wise and point-wise convolution take about 70% of
// the latency" (§4.6).
func (lw *LayerWise) ShareByCategory() map[string]float64 {
	total := lw.TotalLatency().Seconds()
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for _, p := range lw.Points {
		out[p.Category] += p.Latency.Seconds() / total
	}
	return out
}

// EndToEnd aggregates layers into a single whole-model point (Figure 4).
//
//lint:hotpath
func (lw *LayerWise) EndToEnd(name string) Point {
	var flop, bytes int64
	for _, p := range lw.Points {
		flop += p.FLOP
		bytes += p.Bytes
	}
	return NewPoint(name, flop, bytes, lw.TotalLatency(), lw.Model)
}

func (m Model) String() string {
	return fmt.Sprintf("roofline{%s/%s: %.2f TFLOP/s, %.1f GB/s, ridge %.1f}",
		m.Platform, m.DType, m.PeakFLOPS/1e12, m.PeakBW/1e9, m.RidgeAI())
}
