package power

import (
	"context"
	"testing"

	"proof/internal/core"
	"proof/internal/graph"
)

const (
	platform = "orin-nx"
	workload = "efficientnetv2-t"
	batch    = 16 // smaller than the paper's 128 for test speed
)

func TestPeakSweepMonotone(t *testing.T) {
	rows, err := PeakSweepCtx(context.Background(), platform, graph.Float16, [][2]int{
		{918, 3199}, {918, 2133}, {510, 3199}, {510, 2133}, {510, 665},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Table 6 orderings: #1 beats #3 on FLOPS; #1 beats #2 on BW;
	// power strictly decreases down the table.
	if rows[0].FLOPS <= rows[2].FLOPS {
		t.Error("GPU clock must govern peak FLOPS")
	}
	if rows[0].BW <= rows[1].BW {
		t.Error("EMC clock must govern peak BW")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PowerW >= rows[i-1].PowerW {
			t.Errorf("power should decrease down Table 6: row %d", i)
		}
	}
	// Lowering GPU clock with EMC fixed also lowers achieved BW
	// (Table 6 #1 vs #3).
	if rows[2].BW >= rows[0].BW {
		t.Error("issue-rate limit: low GPU clock must reduce achieved BW")
	}
}

func TestAnalyzeEMC(t *testing.T) {
	analyses, report, err := AnalyzeEMC(context.Background(), platform, workload, batch, graph.Float16, []int{3199, 2133, 665}, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Layers) == 0 {
		t.Fatal("no layer-wise report")
	}
	if len(analyses) != 3 || analyses[0].EMCMHz != 3199 {
		t.Fatalf("analyses = %+v", analyses)
	}
	// Lower clocks clip more latency: affected share must be
	// monotonically non-decreasing as EMC drops.
	for i := 1; i < len(analyses); i++ {
		if analyses[i].AffectedShare < analyses[i-1].AffectedShare {
			t.Error("affected share must grow as EMC drops")
		}
	}
	// The paper's finding: 2133 clips only a little, 665 clips most.
	a2133, a665 := analyses[1], analyses[2]
	if a2133.AffectedShare > 0.45 {
		t.Errorf("EMC 2133 affected share = %.2f, should be small", a2133.AffectedShare)
	}
	if a665.AffectedShare < 0.5 {
		t.Errorf("EMC 665 affected share = %.2f, should be large", a665.AffectedShare)
	}
}

func TestTuneMatchesPaperChoice(t *testing.T) {
	res, err := Tune(context.Background(), platform, workload, batch, graph.Float16, 15.0, 0.45, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChosenEMCMHz != 2133 {
		t.Errorf("chosen EMC = %d, paper picks 2133", res.ChosenEMCMHz)
	}
	if res.ChosenGPUMHz < 510 || res.ChosenGPUMHz > 714 {
		t.Errorf("chosen GPU = %d, paper lands at 612", res.ChosenGPUMHz)
	}
	if res.Optimal.PowerW > 15.0 {
		t.Errorf("optimal power %.1f exceeds budget", res.Optimal.PowerW)
	}
	if len(res.Evaluations) == 0 || len(res.Evaluations) > 6 {
		t.Errorf("binary search used %d probes, expected a few", len(res.Evaluations))
	}
}

// TestChooseEMCStopsAtFirstUnacceptable is the regression test for the
// §4.6 selection walk. The old loop kept scanning past an unacceptable
// candidate and adopted ANY later clock whose share happened to dip
// back under the threshold — with a non-monotonic AffectedShare
// sequence it picked a memory clock whose bandwidth line provably
// clips the workload at every clock above it.
func TestChooseEMCStopsAtFirstUnacceptable(t *testing.T) {
	tests := []struct {
		name      string
		shares    []float64
		threshold float64
		want      int // index into clocks, -1 = fallback
	}{
		// Non-monotonic dip after an unacceptable candidate: the walk
		// must stop at 2133, not resurrect 665. (Old code returned 665.)
		{"dip after rejection", []float64{0.01, 0.05, 0.25, 0.05}, 0.10, 1},
		{"monotonic lowering", []float64{0.01, 0.05, 0.08}, 0.10, 2},
		{"first candidate unacceptable", []float64{0.50, 0.60}, 0.10, -1},
		{"all acceptable", []float64{0.0, 0.0, 0.0}, 0.10, 2},
	}
	clocks := []int{3199, 2133, 1600, 665}
	const fallback = 9999
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var analyses []EMCAnalysis
			for i, s := range tt.shares {
				analyses = append(analyses, EMCAnalysis{EMCMHz: clocks[i], AffectedShare: s})
			}
			want := fallback
			if tt.want >= 0 {
				want = clocks[tt.want]
			}
			if got := ChooseEMC(analyses, fallback, tt.threshold); got != want {
				t.Errorf("ChooseEMC(%v, thr %.2f) = %d, want %d",
					tt.shares, tt.threshold, got, want)
			}
		})
	}
}

func TestTuneBeatsStockProfiles(t *testing.T) {
	res, err := Tune(context.Background(), platform, workload, batch, graph.Float16, 15.0, 0.45, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Table 7: the tuned profile is faster than every stock profile
	// that fits the budget.
	for _, p := range StockProfiles() {
		w, err := EvaluateProfile(context.Background(), platform, workload, batch, graph.Float16, p, core.ProfileCtx)
		if err != nil {
			t.Fatal(err)
		}
		if w.PowerW <= 15.0 && w.Latency < res.Optimal.Latency {
			t.Errorf("stock profile %s (%.1f W, %v) beats tuned (%.1f W, %v)",
				p.Name, w.PowerW, w.Latency, res.Optimal.PowerW, res.Optimal.Latency)
		}
	}
}

func TestEvaluateProfileErrors(t *testing.T) {
	if _, err := EvaluateProfile(context.Background(), "nope", workload, batch, graph.Float16, StockProfiles()[0], core.ProfileCtx); err == nil {
		t.Error("unknown platform must error")
	}
	if _, err := Tune(context.Background(), "a100", workload, batch, graph.Float16, 100, 0.3, core.ProfileCtx); err == nil {
		t.Error("fixed-clock platform must refuse tuning")
	}
	if _, err := Tune(context.Background(), platform, workload, batch, graph.Float16, 1.0, 0.3, core.ProfileCtx); err == nil {
		t.Error("impossible budget must error")
	}
}

func TestStockAndComparisonProfiles(t *testing.T) {
	if len(StockProfiles()) != 3 || len(ComparisonProfiles()) != 6 {
		t.Error("Table 7 profile sets wrong size")
	}
	maxn := StockProfiles()[0]
	if maxn.Clocks.GPUMHz != 918 || maxn.Clocks.CPUClusters != 2 {
		t.Errorf("MAXN = %+v", maxn)
	}
}
