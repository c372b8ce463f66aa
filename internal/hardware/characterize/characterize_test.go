package characterize

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"proof/internal/experiments"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/roofline"
)

// TestProtocolReproducesCommittedCalibration replays the full protocol
// and requires the result to be byte-identical to the committed
// calibration.json: the file is derived data, and a drift means the
// simulated hardware changed without `proof characterize` being re-run.
func TestProtocolReproducesCommittedCalibration(t *testing.T) {
	file, results, err := All(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(hardware.List()) {
		t.Fatalf("characterized %d platforms, registry has %d", len(results), len(hardware.List()))
	}
	fresh, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fresh = append(fresh, '\n')
	committed, err := os.ReadFile("../calibration.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(committed) {
		t.Errorf("committed calibration.json is stale; regenerate with:\n  go run ./cmd/proof characterize")
	}
}

// TestFreeParameterBudget enforces the protocol's core promise: at most
// two free (non-measured) parameters per platform, and the protocol
// itself never needs them (both scales stay at their neutral 1).
func TestFreeParameterBudget(t *testing.T) {
	if n := reflect.TypeOf(hardware.FreeParams{}).NumField(); n > 2 {
		t.Fatalf("FreeParams has %d fields, the protocol allows at most 2 free parameters", n)
	}
	for _, plat := range hardware.List() {
		cal := plat.Calibration
		if cal == nil {
			t.Errorf("%s: no calibration loaded", plat.Key)
			continue
		}
		if cal.Free.ComputeScale != 1 || cal.Free.MemScale != 1 {
			t.Errorf("%s: free parameters in use (compute %.4f, mem %.4f), protocol should measure everything",
				plat.Key, cal.Free.ComputeScale, cal.Free.MemScale)
		}
	}
}

// TestDerivedCeilingsMatchTable6 checks that the calibration-derived
// roofline ceilings reproduce the paper's Table 6 achieved-peak rows
// within 5% at every published clock pair.
func TestDerivedCeilingsMatchTable6(t *testing.T) {
	plat, err := hardware.Get("orin-nx")
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range experiments.Table6Pairs {
		ref := experiments.Table6Paper[i]
		m := roofline.NewModel(plat, graph.Float16, hardware.Clocks{GPUMHz: pair[0], EMCMHz: pair[1]})
		if rel := m.PeakFLOPS / (ref[0] * 1e12); rel < 0.95 || rel > 1.05 {
			t.Errorf("row %d (%d/%d): ceiling %.3f TFLOP/s vs paper %.3f (off by >5%%)",
				i+1, pair[0], pair[1], m.PeakFLOPS/1e12, ref[0])
		}
		if rel := m.PeakBW / (ref[1] * 1e9); rel < 0.95 || rel > 1.05 {
			t.Errorf("row %d (%d/%d): BW ceiling %.3f GB/s vs paper %.3f (off by >5%%)",
				i+1, pair[0], pair[1], m.PeakBW/1e9, ref[1])
		}
	}
}

// TestCalibratedTable6DeltasHold replays the Table 6 peak sweep through
// internal/experiments — the measured peak test, not just the derived
// ceilings — and checks the achieved peaks against the paper.
func TestCalibratedTable6DeltasHold(t *testing.T) {
	rows, err := experiments.Table6Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(experiments.Table6Paper) {
		t.Fatalf("Table 6 has %d rows, want %d", len(rows), len(experiments.Table6Paper))
	}
	for i, r := range rows {
		ref := experiments.Table6Paper[i]
		if rel := r.FLOPS / (ref[0] * 1e12); rel < 0.95 || rel > 1.05 {
			t.Errorf("row %d: achieved %.3f TFLOP/s vs paper %.3f (off by >5%%)", i+1, r.FLOPS/1e12, ref[0])
		}
		if rel := r.BW / (ref[1] * 1e9); rel < 0.95 || rel > 1.05 {
			t.Errorf("row %d: achieved %.3f GB/s vs paper %.3f (off by >5%%)", i+1, r.BW/1e9, ref[1])
		}
		if rel := r.PowerW / ref[2]; rel < 0.90 || rel > 1.10 {
			t.Errorf("row %d: power %.1f W vs paper %.1f (off by >10%%)", i+1, r.PowerW, ref[2])
		}
	}
}

// TestCalibratedTable4DeltasHold replays the Table 4 prediction-accuracy
// experiment and checks each model's FLOP/memory diff stays close to
// the paper's published diff — the calibration must not skew the
// analytical-vs-counters comparison.
func TestCalibratedTable4DeltasHold(t *testing.T) {
	rows, err := experiments.Table4WithBatchCtx(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if d := math.Abs(r.FLOPDiff - r.PaperFLOPDiff); d > 0.15 {
			t.Errorf("%s: FLOP diff %+.1f%% vs paper %+.1f%% (gap %.1f%% > 15%%)",
				r.Model, r.FLOPDiff*100, r.PaperFLOPDiff*100, d*100)
		}
		if d := math.Abs(r.MemoryDiff - r.PaperMemoryDiff); d > 0.15 {
			t.Errorf("%s: memory diff %+.1f%% vs paper %+.1f%% (gap %.1f%% > 15%%)",
				r.Model, r.MemoryDiff*100, r.PaperMemoryDiff*100, d*100)
		}
	}
}
