package hardware

import (
	"math"
	"testing"

	"proof/internal/graph"
)

func TestAllPlatformsRegistered(t *testing.T) {
	want := []string{"a100", "rtx4090", "xeon-6330", "xavier-nx", "orin-nx", "rpi4b", "npu3720"}
	list := List()
	if len(list) != len(want) {
		t.Fatalf("List() = %d platforms, want %d", len(list), len(want))
	}
	for i, k := range want {
		if list[i].Key != k {
			t.Errorf("List()[%d] = %s, want %s", i, list[i].Key, k)
		}
	}
	for _, p := range list {
		if p.PeakFLOPS[graph.Float32] <= 0 {
			t.Errorf("%s: missing fp32 peak", p.Key)
		}
		if p.MemBW <= 0 || p.KernelOverhead <= 0 {
			t.Errorf("%s: missing bandwidth or overhead", p.Key)
		}
		if p.MaxComputeEff <= 0 || p.MaxComputeEff > 1 || p.MaxMemEff <= 0 || p.MaxMemEff > 1 {
			t.Errorf("%s: efficiency out of (0,1]", p.Key)
		}
		if p.DefaultBatch < 1 || !p.DefaultDType.Valid() {
			t.Errorf("%s: bad default config", p.Key)
		}
		if p.Runtime == "" {
			t.Errorf("%s: no runtime", p.Key)
		}
	}
}

func TestLookupAndGet(t *testing.T) {
	if _, ok := Lookup("a100"); !ok {
		t.Error("a100 missing")
	}
	if _, ok := Lookup("h100"); ok {
		t.Error("h100 should not exist")
	}
	if _, err := Get("h100"); err == nil {
		t.Error("Get should error on unknown platform")
	}
	p, err := Get("orin-nx")
	if err != nil || p.Key != "orin-nx" {
		t.Fatalf("Get(orin-nx) = %v, %v", p, err)
	}
}

func TestPeakAtClockScaling(t *testing.T) {
	p, _ := Get("orin-nx")
	full := p.PeakAt(graph.Float16, 0)
	if full != p.PeakFLOPS[graph.Float16] {
		t.Error("PeakAt(0) must be max peak")
	}
	half := p.PeakAt(graph.Float16, 459)
	if ratio := half / full; ratio < 0.49 || ratio > 0.51 {
		t.Errorf("half-clock peak ratio = %v", ratio)
	}
	// Fixed-clock platform ignores the clock argument.
	a, _ := Get("a100")
	if a.PeakAt(graph.Float16, 500) != a.PeakFLOPS[graph.Float16] {
		t.Error("fixed platform must ignore GPU clock")
	}
	// Unknown dtype falls back to fp32.
	if a.PeakAt(graph.Int64, 0) != a.PeakFLOPS[graph.Float32] {
		t.Error("unknown dtype should fall back to fp32 peak")
	}
}

func TestBWAtClockScaling(t *testing.T) {
	p, _ := Get("orin-nx")
	if p.BWAt(0) != p.MemBW {
		t.Error("BWAt(0) must be max")
	}
	bw := p.BWAt(2133)
	want := p.MemBW * 2133 / 3199
	if rel := bw / want; rel < 0.999 || rel > 1.001 {
		t.Errorf("BWAt(2133) = %v, want %v", bw, want)
	}
}

// TestDefaultClocks holds ResolveClocks to its rule: on the DVFS
// orin-nx an unset clock is its domain's maximum, on the fixed-clock
// a100 the clocks no model reads are zero and clusters one, and a
// capacity outside (0, 1) is zero everywhere. Resolving twice changes
// nothing.
func TestDefaultClocks(t *testing.T) {
	orin, _ := Get("orin-nx")
	a100, _ := Get("a100")
	for _, c := range []struct {
		plat     *Platform
		in, want Clocks
	}{
		{orin, Clocks{}, Clocks{GPUMHz: 918, EMCMHz: 3199, CPUMHz: 1984, CPUClusters: 1}},
		{orin, Clocks{GPUMHz: -1, EMCMHz: 665, CPUMHz: 729, CPUClusters: 2, GPUCapacity: 0.5},
			Clocks{GPUMHz: 918, EMCMHz: 665, CPUMHz: 729, CPUClusters: 2, GPUCapacity: 0.5}},
		{orin, Clocks{GPUMHz: 612, CPUClusters: -3, GPUCapacity: 1}, Clocks{GPUMHz: 612, EMCMHz: 3199, CPUMHz: 1984, CPUClusters: 1}},
		{orin, Clocks{GPUCapacity: 1.5}, Clocks{GPUMHz: 918, EMCMHz: 3199, CPUMHz: 1984, CPUClusters: 1}},
		{orin, Clocks{GPUCapacity: math.NaN()}, Clocks{GPUMHz: 918, EMCMHz: 3199, CPUMHz: 1984, CPUClusters: 1}},
		{a100, Clocks{GPUMHz: 1100, EMCMHz: 1200, CPUMHz: 900, CPUClusters: 3, GPUCapacity: -1}, Clocks{CPUClusters: 1}},
		{a100, Clocks{GPUCapacity: 0.5}, Clocks{CPUClusters: 1, GPUCapacity: 0.5}},
	} {
		got := c.plat.ResolveClocks(c.in)
		if got != c.want {
			t.Errorf("%s: ResolveClocks(%+v) = %+v, want %+v", c.plat.Key, c.in, got, c.want)
		}
		if again := c.plat.ResolveClocks(got); again != got {
			t.Errorf("%s: resolving %+v again gave %+v", c.plat.Key, got, again)
		}
	}
}

func TestPowerModelMatchesTable6(t *testing.T) {
	p, _ := Get("orin-nx")
	// Table 6 operating points (peak test, full utilization, one CPU
	// cluster at the paper's 729 MHz): clock pairs -> published watts.
	cases := []struct {
		gpu, emc int
		want     float64
	}{
		{918, 3199, 23.6},
		{918, 2133, 21.3},
		{510, 3199, 15.7},
		{510, 2133, 13.6},
		{510, 665, 11.5},
	}
	for _, c := range cases {
		got, err := p.EstimatePower(Clocks{GPUMHz: c.gpu, EMCMHz: c.emc, CPUMHz: 729, CPUClusters: 1}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rel := got / c.want; rel < 0.90 || rel > 1.10 {
			t.Errorf("power(%d,%d) = %.1f W, paper %.1f W (off by >10%%)", c.gpu, c.emc, got, c.want)
		}
	}
}

func TestPowerMonotonicity(t *testing.T) {
	p, _ := Get("orin-nx")
	base, _ := p.EstimatePower(Clocks{GPUMHz: 510, EMCMHz: 2133, CPUClusters: 1}, 1, 1)
	hi, _ := p.EstimatePower(Clocks{GPUMHz: 918, EMCMHz: 2133, CPUClusters: 1}, 1, 1)
	if hi <= base {
		t.Error("higher GPU clock must draw more power")
	}
	idle, _ := p.EstimatePower(Clocks{GPUMHz: 918, EMCMHz: 2133, CPUClusters: 1}, 0, 0)
	if idle >= hi {
		t.Error("idle must draw less than loaded")
	}
	two, _ := p.EstimatePower(Clocks{GPUMHz: 918, EMCMHz: 2133, CPUClusters: 2}, 1, 1)
	if two <= hi {
		t.Error("second CPU cluster must add power")
	}
	if _, err := List()[0].EstimatePower(Clocks{}, 1, 1); err == nil {
		t.Error("platform without power model should error")
	}
}

// Regression: EstimatePower used to ignore clk.CPUMHz entirely, so
// Table 7's 729 MHz cluster was priced the same as a max-clock one.
func TestPowerScalesWithCPUClock(t *testing.T) {
	p, _ := Get("orin-nx")
	clk := Clocks{GPUMHz: 918, EMCMHz: 3199, CPUClusters: 1}
	clk.CPUMHz = 729
	low, _ := p.EstimatePower(clk, 1, 1)
	clk.CPUMHz = p.Clocks.CPUMaxMHz
	high, _ := p.EstimatePower(clk, 1, 1)
	if !(low < high) {
		t.Fatalf("CPU at 729 MHz must draw less than at %d MHz: %.3f vs %.3f W",
			p.Clocks.CPUMaxMHz, low, high)
	}
	// The delta must be exactly the clock-ratio scaling of the
	// per-cluster draw.
	want := p.Power.CPUClusterW * (1 - 729.0/float64(p.Clocks.CPUMaxMHz))
	if got := high - low; math.Abs(got-want) > 1e-9 {
		t.Errorf("CPU power delta = %.4f W, want %.4f W", got, want)
	}
	// CPUMHz 0 means default (maximum) clock.
	clk.CPUMHz = 0
	def, _ := p.EstimatePower(clk, 1, 1)
	if def != high {
		t.Errorf("CPUMHz 0 should price the default clock: %.4f vs %.4f W", def, high)
	}
}

func TestSupports(t *testing.T) {
	npu, _ := Get("npu3720")
	if !npu.Supports("CNN") || npu.Supports("Trans.") {
		t.Error("NPU should support CNN but not transformers")
	}
	a, _ := Get("a100")
	if !a.Supports("Trans.") || !a.Supports("Diffu.") {
		t.Error("A100 supports everything")
	}
}

// TestDescribe checks the JSON-friendly platform summary against the
// underlying Platform for every registered platform.
func TestDescribe(t *testing.T) {
	for _, p := range List() {
		info := p.Describe()
		if info.Key != p.Key || info.Name != p.Name || info.Runtime != p.Runtime {
			t.Errorf("%s: identity fields mismatch: %+v", p.Key, info)
		}
		if info.PeakFLOPS != p.PeakAt(p.DefaultDType, 0) {
			t.Errorf("%s: PeakFLOPS = %g, want peak at default dtype", p.Key, info.PeakFLOPS)
		}
		if info.DefaultDType != p.DefaultDType.String() || info.DefaultBatch != p.DefaultBatch {
			t.Errorf("%s: default config mismatch: %+v", p.Key, info)
		}
		if info.HasDVFS != (p.Clocks != nil) || info.HasPower != (p.Power != nil) {
			t.Errorf("%s: capability flags mismatch: %+v", p.Key, info)
		}
		if (len(info.SupportedTypes) == 0) != (p.SupportedTypes == nil) {
			t.Errorf("%s: SupportedTypes = %v vs %v", p.Key, info.SupportedTypes, p.SupportedTypes)
		}
		for _, typ := range info.SupportedTypes {
			if !p.Supports(typ) {
				t.Errorf("%s: Describe lists unsupported family %q", p.Key, typ)
			}
		}
	}
}

// TestDescriptorHashCachedForRegistered: a registered platform returns
// the hash taken at registration, which equals a fresh hash of a copy
// of it, without allocating; an edited copy hashes its live fields.
func TestDescriptorHashCachedForRegistered(t *testing.T) {
	for _, p := range List() {
		cp := *p
		if got, want := p.DescriptorHash(), cp.DescriptorHash(); got != want {
			t.Errorf("%s: registered hash %s, fresh hash of a copy %s", p.Key, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = p.DescriptorHash() }); allocs != 0 {
			t.Errorf("%s: DescriptorHash allocates %.0f times, want 0", p.Key, allocs)
		}
		cp.MemBW *= 2
		if cp.DescriptorHash() == p.DescriptorHash() {
			t.Errorf("%s: an edited copy kept the registered hash", p.Key)
		}
	}
}
