package roofline

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	_ "proof/internal/backend/ortsim"
	_ "proof/internal/backend/ovsim"
	_ "proof/internal/backend/trtsim"
	"proof/internal/graph"
	"proof/internal/hardware"
)

func a100Model(t *testing.T) Model {
	t.Helper()
	plat, err := hardware.Get("a100")
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(plat, graph.Float16, hardware.Clocks{})
}

func TestModelCeilings(t *testing.T) {
	m := a100Model(t)
	if m.PeakFLOPS >= m.TheoreticalFLOPS {
		t.Error("achievable peak must be below theoretical")
	}
	if m.PeakBW >= m.TheoreticalBW {
		t.Error("achievable BW must be below theoretical")
	}
	ridge := m.RidgeAI()
	if ridge < 100 || ridge > 300 {
		t.Errorf("A100 fp16 ridge = %.1f, expected ~200", ridge)
	}
	// Below the ridge the ceiling is BW-limited, above it flat.
	if got := m.AttainableFLOPS(ridge / 10); math.Abs(got-(ridge/10)*m.PeakBW) > 1 {
		t.Error("below-ridge ceiling should be AI*BW")
	}
	if got := m.AttainableFLOPS(ridge * 10); got != m.PeakFLOPS {
		t.Error("above-ridge ceiling should be peak FLOP/s")
	}
}

func TestClassifyBound(t *testing.T) {
	m := a100Model(t)
	ridge := m.RidgeAI()
	if m.ClassifyBound(ridge/2) != "memory" {
		t.Error("half-ridge should be memory-bound")
	}
	if m.ClassifyBound(ridge*2) != "compute" {
		t.Error("double-ridge should be compute-bound")
	}
	if m.ClassifyBound(ridge) != "ridge" {
		t.Error("ridge should classify as ridge")
	}
}

func TestNewPoint(t *testing.T) {
	m := a100Model(t)
	p := NewPoint("layer", 2e9, 1e8, 10*time.Millisecond, m)
	if math.Abs(p.AI-20) > 1e-9 {
		t.Errorf("AI = %v", p.AI)
	}
	if math.Abs(p.FLOPS-2e11) > 1e6 {
		t.Errorf("FLOPS = %v", p.FLOPS)
	}
	if math.Abs(p.Bandwidth-1e10) > 1e5 {
		t.Errorf("BW = %v", p.Bandwidth)
	}
	if p.Bound != "memory" {
		t.Errorf("bound = %s (AI 20 is far below A100 ridge)", p.Bound)
	}
	if eff := m.Efficiency(p); eff <= 0 || eff > 1.5 {
		t.Errorf("efficiency = %v", eff)
	}
	// Zero latency must not divide by zero.
	z := NewPoint("z", 1, 1, 0, m)
	if z.FLOPS != 0 {
		t.Error("zero-latency point should have zero rate")
	}
}

// TestPointEdgeQuadrants covers the four (flop, bytes) zero/non-zero
// quadrants of NewPoint. Pre-fix, a zero-byte point got AI = 0 and
// was classified "memory"-bound despite having zero memory traffic.
func TestPointEdgeQuadrants(t *testing.T) {
	m := a100Model(t)
	ridge := m.RidgeAI()
	tests := []struct {
		name      string
		flop      int64
		bytes     int64
		wantAI    float64
		wantBound string
	}{
		{"both positive", int64(ridge) * 1e8, 1e8, ridge, "ridge"},
		{"zero bytes", 2e9, 0, math.Inf(1), "compute"},
		{"zero flop", 0, 1e8, 0, "memory"},
		{"zero work", 0, 0, 0, "ridge"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := NewPoint(tt.name, tt.flop, tt.bytes, time.Millisecond, m)
			if math.IsInf(tt.wantAI, 1) {
				if !math.IsInf(p.AI, 1) {
					t.Errorf("AI = %v, want +Inf", p.AI)
				}
			} else if math.Abs(p.AI-tt.wantAI) > tt.wantAI*0.01+1e-12 {
				t.Errorf("AI = %v, want ~%v", p.AI, tt.wantAI)
			}
			if p.Bound != tt.wantBound {
				t.Errorf("Bound = %q, want %q", p.Bound, tt.wantBound)
			}
		})
	}
}

// TestClassifyBoundDegenerateCeilings covers ceilings of zero.
// Pre-fix, PeakFLOPS == 0 made RidgeAI() == 0 so any positive
// intensity reported "compute" against a nonexistent compute roof,
// and PeakBW == 0 sent every finite point to "memory".
func TestClassifyBoundDegenerateCeilings(t *testing.T) {
	tests := []struct {
		name  string
		model Model
		ai    float64
		want  string
	}{
		{"no compute roof", Model{PeakBW: 1e9}, 50, "memory"},
		{"no compute roof, infinite ai", Model{PeakBW: 1e9}, math.Inf(1), "memory"},
		{"no bandwidth line", Model{PeakFLOPS: 1e12}, 50, "compute"},
		{"no ceilings at all", Model{}, 50, "ridge"},
		{"real ceilings, infinite ai", Model{PeakFLOPS: 1e12, PeakBW: 1e9}, math.Inf(1), "compute"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.model.ClassifyBound(tt.ai); got != tt.want {
				t.Errorf("ClassifyBound(%v) = %q, want %q", tt.ai, got, tt.want)
			}
		})
	}
	// The attainable ceiling under an infinite intensity is the flat
	// compute roof, never NaN.
	m := Model{PeakFLOPS: 1e12}
	if got := m.AttainableFLOPS(math.Inf(1)); got != 1e12 || math.IsNaN(got) {
		t.Errorf("AttainableFLOPS(+Inf) = %v, want PeakFLOPS", got)
	}
}

// TestPointJSONInfiniteAI asserts a zero-byte point survives JSON
// encoding (encoding/json rejects +Inf; the marshaller nulls it) and
// finite points keep the default wire form.
func TestPointJSONInfiniteAI(t *testing.T) {
	m := a100Model(t)
	inf := NewPoint("zero-bytes", 2e9, 0, time.Millisecond, m)
	raw, err := json.Marshal(inf)
	if err != nil {
		t.Fatalf("marshal of infinite-AI point failed: %v", err)
	}
	if !strings.Contains(string(raw), `"ai":null`) {
		t.Errorf("infinite AI not nulled: %s", raw)
	}
	if !strings.Contains(string(raw), `"bound":"compute"`) {
		t.Errorf("bound lost in encoding: %s", raw)
	}
	// A finite point must keep the exact default encoding, field
	// order included (golden report fixtures depend on it).
	fin := NewPoint("finite", 2e9, 1e8, time.Millisecond, m)
	got, err := json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	type plain Point // method-free view = default encoding
	want, err := json.Marshal(plain(fin))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("finite point wire form drifted:\n got %s\nwant %s", got, want)
	}
}

func TestLayerWiseAggregation(t *testing.T) {
	m := a100Model(t)
	points := []Point{
		NewPoint("a", 1e9, 1e7, 2*time.Millisecond, m),
		NewPoint("b", 3e9, 3e7, 6*time.Millisecond, m),
	}
	var totals Totals
	if s := totals.Share(points[0].Latency); s != 0 {
		t.Errorf("share of an empty total = %v, want 0", s)
	}
	for i := range points {
		totals.Add(&points[i])
	}
	if a, b := totals.Share(points[0].Latency), totals.Share(points[1].Latency); math.Abs(a-0.25) > 1e-9 || math.Abs(b-0.75) > 1e-9 {
		t.Errorf("shares = %v, %v", a, b)
	}
	if totals.Latency != 8*time.Millisecond {
		t.Errorf("total = %v", totals.Latency)
	}
	e2e := totals.EndToEnd("model", m)
	if e2e.Name != "model" || e2e.FLOP != 4e9 || e2e.Bytes != 4e7 {
		t.Errorf("end-to-end %q totals = %d FLOP, %d bytes", e2e.Name, e2e.FLOP, e2e.Bytes)
	}
	if e2e.Latency != 8*time.Millisecond {
		t.Errorf("end-to-end latency = %v", e2e.Latency)
	}
	if want := NewPoint("model", 4e9, 4e7, 8*time.Millisecond, m); e2e != want {
		t.Errorf("end-to-end point = %+v, want %+v", e2e, want)
	}
}

func TestMeasurePeakA100(t *testing.T) {
	plat, _ := hardware.Get("a100")
	res, err := MeasurePeak(context.Background(), plat, graph.Float16, hardware.Clocks{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Achieved peak must approach but not exceed the achievable
	// ceiling (±jitter).
	maxF := plat.PeakAt(graph.Float16, 0) * plat.MaxComputeEff
	if res.FLOPS < 0.5*maxF || res.FLOPS > 1.05*maxF {
		t.Errorf("peak FLOPS = %.2f T (ceiling %.2f T)", res.FLOPS/1e12, maxF/1e12)
	}
	maxB := plat.MemBW * plat.MaxMemEff
	if res.BW < 0.7*maxB || res.BW > 1.05*maxB {
		t.Errorf("peak BW = %.1f GB/s (ceiling %.1f)", res.BW/1e9, maxB/1e9)
	}
}

// TestMeasurePeakOrinMatchesTable6 checks the Table 6 reproduction: the
// achieved roofline peaks at the paper's five clock configurations
// should land near the published values.
func TestMeasurePeakOrinMatchesTable6(t *testing.T) {
	plat, _ := hardware.Get("orin-nx")
	cases := []struct {
		gpu, emc int
		wantTF   float64 // paper TFLOP/s
		wantGBps float64 // paper GB/s
		tolFLOPS float64
		tolBW    float64
	}{
		{918, 3199, 13.620, 87.879, 0.05, 0.05},
		{918, 2133, 13.601, 62.031, 0.05, 0.05},
		{510, 3199, 7.433, 54.002, 0.05, 0.05},
		{510, 2133, 7.426, 53.017, 0.05, 0.05},
		{510, 665, 7.359, 15.177, 0.05, 0.05},
	}
	for _, c := range cases {
		clk := hardware.Clocks{GPUMHz: c.gpu, EMCMHz: c.emc, CPUClusters: 1}
		res, err := MeasurePeak(context.Background(), plat, graph.Float16, clk, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.FLOPS/1e12-c.wantTF) / c.wantTF; rel > c.tolFLOPS {
			t.Errorf("clocks %d/%d: FLOPS %.2f T vs paper %.2f T (err %.0f%%)",
				c.gpu, c.emc, res.FLOPS/1e12, c.wantTF, rel*100)
		}
		if rel := math.Abs(res.BW/1e9-c.wantGBps) / c.wantGBps; rel > c.tolBW {
			t.Errorf("clocks %d/%d: BW %.1f GB/s vs paper %.1f (err %.0f%%)",
				c.gpu, c.emc, res.BW/1e9, c.wantGBps, rel*100)
		}
	}
}

func TestMeasuredModel(t *testing.T) {
	plat, _ := hardware.Get("a100")
	m, err := MeasuredModel(context.Background(), plat, graph.Float16, hardware.Clocks{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakFLOPS <= 0 || m.PeakBW <= 0 {
		t.Error("measured model must have positive ceilings")
	}
	if m.PeakFLOPS > m.TheoreticalFLOPS {
		t.Error("measured peak cannot exceed theoretical")
	}
}

// TestRooflineMathZeroAlloc is the ground truth behind the
// //lint:hotpath annotations: the per-layer roofline math — point
// construction, classification, efficiency and the layer-wise
// aggregates — must not allocate, since a sweep evaluates it for every
// backend layer of every profiled configuration. core's
// TestLayerPointMappingZeroAlloc holds the report's per-layer loop to
// the same bar.
func TestRooflineMathZeroAlloc(t *testing.T) {
	m := a100Model(t)
	var sink float64
	n := testing.AllocsPerRun(200, func() {
		p := NewPoint("layer", 2e9, 3e6, 2*time.Millisecond, m)
		sink = m.Efficiency(p) + m.AttainableFLOPS(p.AI) + m.RidgeAI()
		if m.ClassifyBound(p.AI) == "" {
			t.Fatal("ClassifyBound returned empty")
		}
		var totals Totals
		totals.Add(&p)
		e2e := totals.EndToEnd("model", m)
		sink += e2e.FLOPS + totals.Share(p.Latency)
	})
	if n != 0 {
		t.Fatalf("roofline math allocates %v per op, want 0 (sink %v)", n, sink)
	}
}

// Regression: NewModel used to ignore Platform.IssueBWLimit entirely,
// while the simulated hardware caps its attainable bandwidth with it —
// so at reduced GPU clocks the chart's bandwidth roof sat far above
// anything the simulator could reach (Table 6 #1 vs #3: same EMC,
// ~40% less achieved bandwidth at 510 MHz).
func TestNewModelAppliesIssueBWLimit(t *testing.T) {
	plat, _ := hardware.Get("orin-nx")
	full := NewModel(plat, graph.Float16, hardware.Clocks{GPUMHz: 918, EMCMHz: 3199})
	down := NewModel(plat, graph.Float16, hardware.Clocks{GPUMHz: 510, EMCMHz: 3199})
	limit := plat.IssueBWLimit(510)
	if down.PeakBW > limit*1.001 {
		t.Errorf("PeakBW at 510 MHz = %.1f GB/s, must be issue-capped at %.1f GB/s",
			down.PeakBW/1e9, limit/1e9)
	}
	// The cap must actually bind: well below the DRAM-side ceiling.
	if down.PeakBW > full.PeakBW*0.75 {
		t.Errorf("down-clocked PeakBW %.1f GB/s not clearly below full %.1f GB/s",
			down.PeakBW/1e9, full.PeakBW/1e9)
	}
	// GPUCapacity scales the cap too (the power-gated "15W" profile).
	gated := NewModel(plat, graph.Float16, hardware.Clocks{GPUMHz: 510, EMCMHz: 3199, GPUCapacity: 0.5})
	if rel := gated.PeakBW / (down.PeakBW * 0.5); rel < 0.999 || rel > 1.001 {
		t.Errorf("half-capacity PeakBW = %.1f GB/s, want half of %.1f",
			gated.PeakBW/1e9, down.PeakBW/1e9)
	}
}
