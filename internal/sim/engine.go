package sim

import (
	"math"
	"time"

	"proof/internal/graph"
	"proof/internal/hardware"
)

// Config selects the simulated execution environment.
type Config struct {
	// Platform is the hardware model to execute on.
	Platform *hardware.Platform
	// Clocks is the clock configuration, resolved by
	// hardware.Platform.ResolveClocks (backend.BuildEngine resolves an
	// engine's clocks).
	Clocks hardware.Clocks
	// DType is the inference data type.
	DType graph.DataType
	// Seed perturbs the deterministic run-to-run jitter, emulating
	// repeated profiling runs.
	Seed uint64
}

// Work describes one backend layer to simulate.
type Work struct {
	// Name identifies the layer.
	Name string
	// Key is the layer's canonical content fingerprint, a SHA-256 sum
	// (set by the backend build from the fused nodes' ops/attrs/shapes
	// with memo.ContentKey or memo.ReformatKey). The deterministic
	// jitter is derived from it, so structurally identical layers — the
	// same unit appearing in two models, or under different
	// runtime-assigned names — behave identically, as they would on
	// real hardware. The jitter hashes the sum's 64 lower-case hex
	// digits, the bytes every pinned report's jitter derives from; the
	// digits are never written out. A zero Key falls back to Name.
	Key [32]byte
	// Class selects the efficiency envelope.
	Class Class
	// HWFLOP is the instruction-counted FLOP (see HardwareFLOP).
	HWFLOP int64
	// ModelFLOP is the analytical model FLOP.
	ModelFLOP int64
	// Bytes is the predicted DRAM traffic (reads + writes).
	Bytes int64
}

// Timing is the simulated execution result of one layer.
type Timing struct {
	// Name echoes the layer name.
	Name string
	// Latency is the simulated wall time of the layer.
	Latency time.Duration
	// ComputeTime and MemoryTime are the roofline components.
	ComputeTime time.Duration
	MemoryTime  time.Duration
	// Bound reports which term dominated: "compute", "memory" or
	// "overhead".
	Bound string
	// ActualBytes is the cache-affected DRAM traffic a hardware
	// counter would observe.
	ActualBytes int64
	// ActualHWFLOP is the instruction-counted FLOP the counters see.
	ActualHWFLOP int64
}

// relComputeEff is the per-class efficiency relative to the platform's
// best achievable compute rate.
var relComputeEff = map[Class]float64{
	ClassGEMM:         1.00,
	ClassConv:         0.90,
	ClassDWConv:       0.60, // relative to the *vector* peak, see below
	ClassSoftmax:      0.25,
	ClassNorm:         0.25,
	ClassElementwise:  0.40,
	ClassReduction:    0.30,
	ClassEmbedding:    0.20,
	ClassMemCopy:      0.20,
	ClassDataMovement: 0.20,
}

// relMemEff is the per-class achieved fraction of the platform's best
// achievable bandwidth. Compute kernels stream DRAM through blocked
// layouts and never saturate the copy-engine rate — which is why in
// Figure 8 only the near-saturating pointwise layers sit above the
// lowered-EMC bandwidth line.
var relMemEff = map[Class]float64{
	ClassGEMM:         0.65,
	ClassConv:         0.60,
	ClassDWConv:       0.55,
	ClassSoftmax:      0.65,
	ClassNorm:         0.70,
	ClassElementwise:  0.75,
	ClassReduction:    0.55,
	ClassEmbedding:    0.35,
	ClassMemCopy:      1.00, // contiguous copies/reformats run at full BW
	ClassDataMovement: 0.50, // strided transposes/slices do not
}

// SimulateLayer produces the timing of one layer under cfg.
func SimulateLayer(w Work, cfg Config) Timing {
	plat := cfg.Platform
	capacity := cfg.Clocks.Capacity()
	peak := plat.PeakAt(cfg.DType, cfg.Clocks.GPUMHz) * plat.MaxComputeEff * capacity
	// MemEffAt applies the platform's EMC efficiency curve: DRAM
	// efficiency is not flat across memory clocks (Table 6 #2/#5).
	bw := plat.BWAt(cfg.Clocks.EMCMHz) * plat.MemEffAt(cfg.Clocks.EMCMHz)
	// Down-clocked GPUs cannot issue memory transactions fast enough
	// to saturate DRAM (Table 6's achieved-BW drop at low GPU clocks);
	// power-gated TPCs reduce the issue rate too.
	if limit := plat.IssueBWLimit(cfg.Clocks.GPUMHz) * capacity; limit < bw {
		bw = limit
	}

	// Depth-wise convolutions cannot use matrix units: their compute
	// ceiling is the vector pipeline (~2x the fp32 peak at fp16/int8),
	// the root cause of the low-FLOP/s depth-wise points in Figures
	// 5(c) and 8.
	if w.Class == ClassDWConv && plat.TensorCore != nil &&
		(cfg.DType == graph.Float16 || cfg.DType == graph.BFloat16 || cfg.DType == graph.Int8) {
		peak = plat.PeakAt(graph.Float32, cfg.Clocks.GPUMHz) * 2 * plat.MaxComputeEff * capacity
	}

	effC := relComputeEff[w.Class]
	effM := relMemEff[w.Class]

	switch w.Class {
	case ClassGEMM, ClassConv:
		// Dense kernels approach their ceiling only with enormous
		// uniform work (the peak-test GEMMs); real model layers lose
		// efficiency to tile tails, prologues/epilogues and cache
		// pressure — the reason Figure 4's models mostly sit well
		// below the roof even when compute-bound.
		w50 := peak * 150e-6 // FLOP needed to reach ~half of the gap
		frac := float64(w.HWFLOP) / (float64(w.HWFLOP) + w50)
		effC *= 0.55 + 0.45*frac
	default:
		// Small layers cannot fill the machine: ramp-up derating
		// against a fraction of the launch overhead.
		if w.HWFLOP > 0 {
			saturation := peak * plat.KernelOverhead.Seconds() * 0.2
			effC *= float64(w.HWFLOP) / (float64(w.HWFLOP) + saturation)
		}
	}

	var tc, tm float64
	if w.HWFLOP > 0 && peak > 0 && effC > 0 {
		tc = float64(w.HWFLOP) / (peak * effC)
	}
	// The layer identity is hashed once; the latency jitter and the
	// traffic deviation both continue from it.
	id := w.identity()
	actualBytes := measuredBytes(w.Bytes, id)
	if actualBytes > 0 && bw > 0 && effM > 0 {
		tm = float64(actualBytes) / (bw * effM)
	}

	overhead := plat.KernelOverhead.Seconds()
	lat := overhead + math.Max(tc, tm)
	lat *= 1 + jitter(id, "", cfg.Seed, 0.015)

	bound := "overhead"
	switch {
	case tc >= tm && tc > overhead:
		bound = "compute"
	case tm > tc && tm > overhead:
		bound = "memory"
	}
	return Timing{
		Name:         w.Name,
		Latency:      secToDur(lat),
		ComputeTime:  secToDur(tc),
		MemoryTime:   secToDur(tm),
		Bound:        bound,
		ActualBytes:  actualBytes,
		ActualHWFLOP: w.HWFLOP,
	}
}

// Utilization aggregates the GPU-compute and memory utilization of a
// run as an external monitor (jtop) would observe it — the inputs to
// the platform power model (§4.6). Add each layer in order; the sums
// are float seconds.
type Utilization struct {
	latency, compute, memory float64
}

// Add counts one layer's latency and its compute and memory time.
//
//lint:hotpath
func (u *Utilization) Add(latency, compute, memory time.Duration) {
	u.latency += latency.Seconds()
	u.compute += compute.Seconds()
	u.memory += memory.Seconds()
}

// Fractions returns compute and memory time over latency, each capped
// at 1, or zeros while no latency was added.
//
//lint:hotpath
func (u *Utilization) Fractions() (compute, memory float64) {
	if u.latency == 0 {
		return 0, 0
	}
	return math.Min(1, u.compute/u.latency), math.Min(1, u.memory/u.latency)
}

// measuredBytes applies a deterministic per-layer cache deviation to the
// predicted traffic: real counters see a few percent of extra evictions
// or savings from cache reuse (the small Memory diffs of Table 4). id is
// the layer identity's hash (Work.identity).
func measuredBytes(bytes int64, id uint64) int64 {
	if bytes == 0 {
		return 0
	}
	d := jitter(id, "/bytes", 0, 1) // stable across runs
	// Map [-1,1] to [-5%, +8%].
	frac := 0.015 + d*0.065
	return int64(float64(bytes) * (1 + frac))
}

// FNV-1a 64-bit parameters (hash/fnv), inlined: the stdlib hasher
// escapes to the heap and its Write takes []byte, which costs one
// allocation per string conversion — on the per-request hot path that
// is two allocations per simulated layer. The inline folds below are
// byte-identical to fnv.New64a().Write(identity+suffix+seedBytes),
// where identity is the key's hex digits or the name, and seedBytes
// are the seed's little-endian bytes: four below 2^32, all eight from
// 2^32 on.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// identity returns the FNV-1a state after the layer identity the
// deterministic jitter hashes: the content key's 64 lower-case hex
// digits when the build set one, the layer name otherwise.
//
//lint:hotpath
func (w *Work) identity() uint64 {
	h := uint64(fnvOffset64)
	if w.Key == ([32]byte{}) {
		for i := 0; i < len(w.Name); i++ {
			h = (h ^ uint64(w.Name[i])) * fnvPrime64
		}
		return h
	}
	const digits = "0123456789abcdef"
	for _, b := range w.Key {
		h = (h ^ uint64(digits[b>>4])) * fnvPrime64
		h = (h ^ uint64(digits[b&15])) * fnvPrime64
	}
	return h
}

// jitter returns a deterministic pseudo-random value in [-scale, scale)
// that continues the identity hash h with suffix and the seed's bytes.
//
//lint:hotpath
func jitter(h uint64, suffix string, seed uint64, scale float64) float64 {
	for i := 0; i < len(suffix); i++ {
		h = (h ^ uint64(suffix[i])) * fnvPrime64
	}
	h = (h ^ uint64(byte(seed))) * fnvPrime64
	h = (h ^ uint64(byte(seed>>8))) * fnvPrime64
	h = (h ^ uint64(byte(seed>>16))) * fnvPrime64
	h = (h ^ uint64(byte(seed>>24))) * fnvPrime64
	// The upper four bytes are folded only when set: every seed below
	// 2^32 keeps its four-byte jitter, and a larger seed no longer
	// jitters like its low half.
	if seed>>32 != 0 {
		h = (h ^ uint64(byte(seed>>32))) * fnvPrime64
		h = (h ^ uint64(byte(seed>>40))) * fnvPrime64
		h = (h ^ uint64(byte(seed>>48))) * fnvPrime64
		h = (h ^ uint64(byte(seed>>56))) * fnvPrime64
	}
	u := float64(h%1_000_000)/500_000 - 1 // [-1, 1)
	return u * scale
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
