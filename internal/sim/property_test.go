package sim

import (
	"testing"
	"testing/quick"

	"proof/internal/graph"
	"proof/internal/hardware"
)

// TestLatencyMonotoneInWork: more FLOP (same class/bytes) never runs
// faster; more bytes (same FLOP) never runs faster.
func TestLatencyMonotoneInWork(t *testing.T) {
	plat, _ := hardware.Get("a100")
	cfg := Config{Platform: plat, DType: graph.Float16}
	f := func(flopK, bytesK uint32) bool {
		flop := int64(flopK)*1e6 + 1e6
		bytes := int64(bytesK)*1e3 + 1e3
		base := SimulateLayer(Work{Name: "w", Class: ClassConv, HWFLOP: flop, Bytes: bytes}, cfg)
		moreFlop := SimulateLayer(Work{Name: "w", Class: ClassConv, HWFLOP: flop * 2, Bytes: bytes}, cfg)
		moreBytes := SimulateLayer(Work{Name: "w", Class: ClassConv, HWFLOP: flop, Bytes: bytes * 2}, cfg)
		return moreFlop.Latency >= base.Latency-base.Latency/50 &&
			moreBytes.Latency >= base.Latency-base.Latency/50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLatencyMonotoneInClocks: on a DVFS platform, raising either clock
// never slows a layer.
func TestLatencyMonotoneInClocks(t *testing.T) {
	plat, _ := hardware.Get("orin-nx")
	w := Work{Name: "x", Class: ClassConv, HWFLOP: 1e9, Bytes: 1e7}
	clocks := []int{204, 408, 612, 918}
	var prev Timing
	for i, gpu := range clocks {
		tm := SimulateLayer(w, Config{Platform: plat, DType: graph.Float16,
			Clocks: hardware.Clocks{GPUMHz: gpu, EMCMHz: 3199}})
		if i > 0 && tm.Latency > prev.Latency {
			t.Errorf("GPU %d MHz slower than %d MHz", gpu, clocks[i-1])
		}
		prev = tm
	}
	for i, emc := range []int{665, 2133, 3199} {
		tm := SimulateLayer(w, Config{Platform: plat, DType: graph.Float16,
			Clocks: hardware.Clocks{GPUMHz: 918, EMCMHz: emc}})
		if i > 0 && tm.Latency > prev.Latency {
			t.Errorf("EMC %d MHz slower than previous step", emc)
		}
		prev = tm
	}
}

// TestGPUCapacityDerating: power-gating TPCs (the stock-15W TPC_PG_MASK
// quirk) slows compute-bound layers proportionally.
func TestGPUCapacityDerating(t *testing.T) {
	plat, _ := hardware.Get("orin-nx")
	w := Work{Name: "g", Class: ClassGEMM, HWFLOP: 5e10, Bytes: 1e6}
	full := SimulateLayer(w, Config{Platform: plat, DType: graph.Float16,
		Clocks: hardware.Clocks{GPUMHz: 612, EMCMHz: 3199}})
	gated := SimulateLayer(w, Config{Platform: plat, DType: graph.Float16,
		Clocks: hardware.Clocks{GPUMHz: 612, EMCMHz: 3199, GPUCapacity: 0.62}})
	ratio := gated.ComputeTime.Seconds() / full.ComputeTime.Seconds()
	if ratio < 1.4 || ratio > 1.8 {
		t.Errorf("capacity 0.62 compute slowdown = %.2fx, want ~1.6x", ratio)
	}
}

// TestEfficiencyNeverExceedsCeiling: attained rates stay at or below
// the platform's achievable ceilings for any class and size.
func TestEfficiencyNeverExceedsCeiling(t *testing.T) {
	plat, _ := hardware.Get("a100")
	cfg := Config{Platform: plat, DType: graph.Float16}
	classes := []Class{ClassGEMM, ClassConv, ClassDWConv, ClassElementwise,
		ClassSoftmax, ClassNorm, ClassReduction, ClassDataMovement, ClassMemCopy}
	ceilingF := plat.PeakAt(graph.Float16, 0)
	ceilingB := plat.MemBW
	for _, class := range classes {
		for _, scale := range []int64{1e6, 1e9, 1e12} {
			w := Work{Name: "w", Class: class, HWFLOP: scale, ModelFLOP: scale, Bytes: scale / 10}
			tm := SimulateLayer(w, cfg)
			if sec := tm.Latency.Seconds(); sec > 0 {
				if rate := float64(w.HWFLOP) / sec; rate > ceilingF {
					t.Errorf("%v at %d FLOP attains %.2e > ceiling %.2e", class, scale, rate, ceilingF)
				}
				if bwRate := float64(tm.ActualBytes) / sec; bwRate > ceilingB {
					t.Errorf("%v at %d bytes attains %.2e B/s > ceiling %.2e", class, scale, bwRate, ceilingB)
				}
			}
		}
	}
}
