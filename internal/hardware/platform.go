// Package hardware models the seven evaluation platforms of the paper's
// Table 2: peak compute per data type, memory bandwidth, on-chip memory,
// per-layer launch overhead, tensor-core architecture, and — for the
// Jetson Orin NX — DVFS clock domains and a power model calibrated to
// the operating points published in Tables 6 and 7.
//
// The numbers are derived from the platforms' public specifications;
// latency simulation (internal/sim) derates them with per-op-class
// efficiency factors, which is what makes the roofline *shapes* of the
// paper reproduce.
package hardware

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"proof/internal/graph"
)

// TensorCoreInfo describes a platform's matrix-math units, including the
// per-architecture FLOP count of one HMMA/IMMA instruction — the datum
// NCU gets wrong (§4.2) and internal/ncusim reproduces.
type TensorCoreInfo struct {
	// Arch is the GPU architecture ("volta", "ampere", "ada").
	Arch string
	// FLOPPerMMA is the number of FLOP one HMMA/IMMA instruction
	// performs on this architecture (fp16 dense).
	FLOPPerMMA int
}

// ClockDomains describes the tunable clock domains of a DVFS platform
// (the Jetson Orin NX in the paper).
type ClockDomains struct {
	// GPUMaxMHz is the maximum GPU core clock.
	GPUMaxMHz int
	// GPUOptionsMHz are the selectable GPU clock steps.
	GPUOptionsMHz []int
	// EMCMaxMHz is the maximum memory (EMC) clock.
	EMCMaxMHz int
	// EMCOptionsMHz are the selectable memory clock steps.
	EMCOptionsMHz []int
	// CPUMaxMHz is the maximum CPU cluster clock.
	CPUMaxMHz int
	// CPUClusters is the number of CPU clusters the platform can power
	// (Table 7's MAXN "729/729" powers two).
	CPUClusters int
}

// Clocks is one clock configuration; Platform.ResolveClocks gives each
// field its meaning on a platform.
type Clocks struct {
	// GPUMHz, EMCMHz and CPUMHz are the GPU, memory and CPU cluster
	// clocks. On a DVFS platform zero or less means the domain's
	// maximum; fixed-clock platforms ignore them.
	GPUMHz int
	EMCMHz int
	CPUMHz int
	// CPUClusters is the number of powered CPU clusters (Table 7's
	// "729/off" = 1, "729/729" = 2; fewer than one = one).
	CPUClusters int
	// GPUCapacity is the fraction of GPU TPCs enabled (outside (0, 1) =
	// all). The Jetson stock "15W" profile sets the undocumented
	// TPC_PG_MASK to 252, disabling part of the GPU — slower but
	// lower-power than the same clocks with all TPCs (§4.6, Table 7 #2
	// vs #7).
	GPUCapacity float64
}

// Capacity returns the effective GPU capacity fraction in (0, 1].
func (c Clocks) Capacity() float64 {
	if c.GPUCapacity > 0 && c.GPUCapacity < 1 {
		return c.GPUCapacity
	}
	return 1
}

// PowerModel estimates platform power draw for a clock configuration
// and utilization, calibrated against Table 6 (peak test) and Table 7
// (EfficientNetV2-T) of the paper.
type PowerModel struct {
	// StaticW is the always-on baseline.
	StaticW float64
	// CPUClusterW is the draw per active CPU cluster.
	CPUClusterW float64
	// GPUMaxW is the GPU draw at maximum clock under full load.
	GPUMaxW float64
	// GPUExp is the exponent of the clock/power curve.
	GPUExp float64
	// EMCWPerMHz is the memory-subsystem draw per MHz under load.
	EMCWPerMHz float64
	// GPUIdleFrac / EMCIdleFrac are the fractions drawn at zero
	// utilization (clock gating is imperfect).
	GPUIdleFrac float64
	EMCIdleFrac float64
}

// Platform describes one evaluation hardware platform.
type Platform struct {
	// Key is the canonical lookup key ("a100", "orin-nx", ...).
	Key string
	// Name and Scenario mirror Table 2.
	Name     string
	Scenario string
	// Arch is the micro-architecture family ("ampere", "x86-avx512",
	// "cortex-a72", ...).
	Arch string
	// Runtime is the default backend key ("trtsim", "ovsim",
	// "ortsim"), mirroring Table 2's runtime column.
	Runtime string
	// PeakFLOPS maps data type to peak FLOP/s (or OP/s for integer
	// types) at maximum clocks.
	PeakFLOPS map[graph.DataType]float64
	// MemBW is the theoretical DRAM bandwidth in B/s at max clocks.
	MemBW float64
	// SRAMBytes is the last-level on-chip memory.
	SRAMBytes int64
	// KernelOverhead is the fixed per-layer launch/dispatch cost.
	KernelOverhead time.Duration
	// MaxComputeEff and MaxMemEff are the achievable fractions of
	// peak compute / bandwidth for ideal kernels (the "achieved
	// roofline" of Table 6 relative to the datasheet numbers).
	MaxComputeEff float64
	MaxMemEff     float64
	// IssueBWPerMHz caps achievable bandwidth by the GPU core clock:
	// copy kernels can only issue so many memory transactions per
	// cycle, so down-clocking the GPU also lowers attained bandwidth
	// (Table 6, #1 vs #3). Zero disables the cap.
	IssueBWPerMHz float64
	// EMCEffCurve optionally corrects MaxMemEff across memory clocks:
	// quadratic coefficients {a, b, c} evaluated at x = emc/EMCMax
	// (see MemEffAt). Zero means flat efficiency.
	EMCEffCurve [3]float64
	// TensorCore is non-nil for platforms with matrix units.
	TensorCore *TensorCoreInfo
	// DefaultDType and DefaultBatch are the paper's per-platform
	// evaluation configuration ("a batch size and data type that is
	// reasonable and fully utilizes the hardware").
	DefaultDType graph.DataType
	DefaultBatch int
	// Clocks is non-nil for DVFS-tunable platforms.
	Clocks *ClockDomains
	// Power is non-nil when a power model is calibrated.
	Power *PowerModel
	// Calibration is non-nil once the characterization protocol has
	// measured the platform (loaded from the embedded
	// calibration.json; regenerate with `proof characterize`). The
	// roofline analysis layer derives its ceilings from it instead of
	// the raw Max*Eff factors.
	Calibration *Calibration
	// SupportedTypes optionally restricts model families (the NPU in
	// §4.3 runs only a small portion of models); nil = all.
	SupportedTypes map[string]bool
}

// PeakAt returns the peak FLOP/s for a data type at the given GPU clock
// (0 = maximum). Unlisted data types fall back to Float32.
func (p *Platform) PeakAt(dt graph.DataType, gpuMHz int) float64 {
	peak, ok := p.PeakFLOPS[dt]
	if !ok {
		peak = p.PeakFLOPS[graph.Float32]
	}
	if p.Clocks == nil || gpuMHz <= 0 || p.Clocks.GPUMaxMHz == 0 {
		return peak
	}
	return peak * float64(gpuMHz) / float64(p.Clocks.GPUMaxMHz)
}

// BWAt returns the DRAM bandwidth at the given memory clock (0 = max).
func (p *Platform) BWAt(emcMHz int) float64 {
	if p.Clocks == nil || emcMHz <= 0 || p.Clocks.EMCMaxMHz == 0 {
		return p.MemBW
	}
	return p.MemBW * float64(emcMHz) / float64(p.Clocks.EMCMaxMHz)
}

// IssueBWLimit returns the GPU-clock-bound achievable bandwidth cap in
// B/s, or +Inf when the platform has no issue-rate model or the clock
// is unspecified.
func (p *Platform) IssueBWLimit(gpuMHz int) float64 {
	if p.IssueBWPerMHz <= 0 || gpuMHz <= 0 {
		return math.Inf(1)
	}
	return p.IssueBWPerMHz * float64(gpuMHz)
}

// ResolveClocks gives each clock field of c its one meaning on this
// platform, and is the only code that defaults a clock:
//   - On a DVFS platform (Clocks != nil), a GPU, EMC or CPU clock of
//     zero or less means that domain's maximum. On a fixed-clock
//     platform no model reads those three clocks, so they resolve to
//     zero.
//   - Fewer than one CPU cluster means one. Only the power model reads
//     clusters, so on a platform without one they resolve to one.
//   - A GPU capacity outside (0, 1) means every TPC is enabled and
//     resolves to 0, the value Capacity reads as all TPCs, so a request
//     that leaves it unset keeps its key.
//
// Resolving resolved clocks returns them unchanged.
func (p *Platform) ResolveClocks(c Clocks) Clocks {
	if d := p.Clocks; d != nil {
		if c.GPUMHz <= 0 {
			c.GPUMHz = d.GPUMaxMHz
		}
		if c.EMCMHz <= 0 {
			c.EMCMHz = d.EMCMaxMHz
		}
		if c.CPUMHz <= 0 {
			c.CPUMHz = d.CPUMaxMHz
		}
	} else {
		c.GPUMHz, c.EMCMHz, c.CPUMHz = 0, 0, 0
	}
	if c.CPUClusters < 1 || p.Power == nil {
		c.CPUClusters = 1
	}
	if c.Capacity() == 1 {
		c.GPUCapacity = 0
	}
	return c
}

// EstimatePower returns the estimated power draw in watts for a clock
// configuration, resolved by ResolveClocks, at the given GPU and memory
// utilizations (each in [0,1]).
func (p *Platform) EstimatePower(clk Clocks, utilGPU, utilMem float64) (float64, error) {
	if p.Power == nil {
		return 0, fmt.Errorf("hardware: no power model for %s", p.Key)
	}
	pm := p.Power
	clamp := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
	utilGPU, utilMem = clamp(utilGPU), clamp(utilMem)
	clk = p.ResolveClocks(clk)
	// CPUClusterW is the per-cluster draw at CPUMaxMHz; a down-clocked
	// cluster draws proportionally less (Table 7 runs at 729 of 1984
	// MHz).
	cpuScale, gpuScale, emc := 1.0, 1.0, 0.0
	if d := p.Clocks; d != nil {
		cpuScale = float64(clk.CPUMHz) / float64(d.CPUMaxMHz)
		gpuScale = float64(clk.GPUMHz) / float64(d.GPUMaxMHz)
		emc = float64(clk.EMCMHz)
	}
	w := pm.StaticW + float64(clk.CPUClusters)*pm.CPUClusterW*cpuScale

	gpuW := pm.GPUMaxW * math.Pow(gpuScale, pm.GPUExp)
	// Power-gated TPCs draw (almost) nothing.
	gpuW *= 0.45 + 0.55*clk.Capacity()
	w += gpuW * (pm.GPUIdleFrac + (1-pm.GPUIdleFrac)*utilGPU)

	emcW := pm.EMCWPerMHz * emc
	w += emcW * (pm.EMCIdleFrac + (1-pm.EMCIdleFrac)*utilMem)
	return w, nil
}

// Info is the JSON-friendly listing form of a Platform: Platform itself
// does not serialize cleanly (DataType-keyed maps, durations, nested
// model structs), so API surfaces that enumerate platforms expose this
// summary instead.
type Info struct {
	Key      string `json:"key"`
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	Arch     string `json:"arch"`
	Runtime  string `json:"runtime"`
	// DefaultDType and DefaultBatch are the paper's evaluation config.
	DefaultDType string `json:"default_dtype"`
	DefaultBatch int    `json:"default_batch"`
	// PeakFLOPS is the peak at the default data type; MemBW in B/s.
	PeakFLOPS float64 `json:"peak_flops"`
	MemBW     float64 `json:"mem_bw"`
	// HasDVFS / HasPower report tunable clocks and a power model.
	HasDVFS  bool `json:"has_dvfs"`
	HasPower bool `json:"has_power"`
	// SupportedTypes lists the restricted model families, sorted;
	// empty means all families run.
	SupportedTypes []string `json:"supported_types,omitempty"`
}

// Describe returns the platform's JSON-friendly summary.
func (p *Platform) Describe() Info {
	info := Info{
		Key:          p.Key,
		Name:         p.Name,
		Scenario:     p.Scenario,
		Arch:         p.Arch,
		Runtime:      p.Runtime,
		DefaultDType: p.DefaultDType.String(),
		DefaultBatch: p.DefaultBatch,
		PeakFLOPS:    p.PeakAt(p.DefaultDType, 0),
		MemBW:        p.MemBW,
		HasDVFS:      p.Clocks != nil,
		HasPower:     p.Power != nil,
	}
	for t, ok := range p.SupportedTypes {
		if ok {
			info.SupportedTypes = append(info.SupportedTypes, t)
		}
	}
	sort.Strings(info.SupportedTypes)
	return info
}

// DescriptorHash returns a stable sha256 fingerprint of every field of
// the platform descriptor. Every request key embeds this hash instead
// of the Key alone, so editing any descriptor number — a peak, an
// efficiency factor, a clock table — changes the hash and can never
// serve results computed under the old descriptor. A registered
// platform is hashed once, at registration; any other value, such as
// an edited copy of one, hashes its live fields on every call.
func (p *Platform) DescriptorHash() string {
	if h, ok := registeredHashes[p]; ok {
		return h
	}
	h := sha256.New()
	hashStr(h, "proof-platform-v1")
	hashStr(h, p.Key)
	hashStr(h, p.Name)
	hashStr(h, p.Scenario)
	hashStr(h, p.Arch)
	hashStr(h, p.Runtime)

	dts := make([]int, 0, len(p.PeakFLOPS))
	for dt := range p.PeakFLOPS {
		dts = append(dts, int(dt))
	}
	sort.Ints(dts)
	hashInt(h, int64(len(dts)))
	for _, dt := range dts {
		hashInt(h, int64(dt))
		hashFloat(h, p.PeakFLOPS[graph.DataType(dt)])
	}

	hashFloat(h, p.MemBW)
	hashInt(h, p.SRAMBytes)
	hashInt(h, int64(p.KernelOverhead))
	hashFloat(h, p.MaxComputeEff)
	hashFloat(h, p.MaxMemEff)
	hashFloat(h, p.IssueBWPerMHz)
	hashFloat(h, p.EMCEffCurve[0])
	hashFloat(h, p.EMCEffCurve[1])
	hashFloat(h, p.EMCEffCurve[2])

	if p.TensorCore != nil {
		hashStr(h, p.TensorCore.Arch)
		hashInt(h, int64(p.TensorCore.FLOPPerMMA))
	} else {
		hashStr(h, "no-tc")
	}

	hashInt(h, int64(p.DefaultDType))
	hashInt(h, int64(p.DefaultBatch))

	if c := p.Clocks; c != nil {
		hashInt(h, int64(c.GPUMaxMHz))
		hashInts(h, c.GPUOptionsMHz)
		hashInt(h, int64(c.EMCMaxMHz))
		hashInts(h, c.EMCOptionsMHz)
		hashInt(h, int64(c.CPUMaxMHz))
		hashInt(h, int64(c.CPUClusters))
	} else {
		hashStr(h, "no-dvfs")
	}

	if pm := p.Power; pm != nil {
		hashFloat(h, pm.StaticW)
		hashFloat(h, pm.CPUClusterW)
		hashFloat(h, pm.GPUMaxW)
		hashFloat(h, pm.GPUExp)
		hashFloat(h, pm.EMCWPerMHz)
		hashFloat(h, pm.GPUIdleFrac)
		hashFloat(h, pm.EMCIdleFrac)
	} else {
		hashStr(h, "no-power")
	}

	if c := p.Calibration; c != nil {
		c.hashInto(h)
	} else {
		hashStr(h, "no-calibration")
	}

	types := make([]string, 0, len(p.SupportedTypes))
	for t, ok := range p.SupportedTypes {
		if ok {
			types = append(types, t)
		}
	}
	sort.Strings(types)
	hashInt(h, int64(len(types)))
	for _, t := range types {
		hashStr(h, t)
	}
	if p.SupportedTypes == nil {
		hashStr(h, "all-types")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashStr writes a length-prefixed string, so concatenations of
// adjacent fields cannot collide ("ab"+"c" vs "a"+"bc").
func hashStr(h hash.Hash, s string) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	h.Write(buf[:n])
	h.Write([]byte(s))
}

func hashInt(h hash.Hash, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	h.Write(buf[:n])
}

func hashInts(h hash.Hash, vs []int) {
	hashInt(h, int64(len(vs)))
	for _, v := range vs {
		hashInt(h, int64(v))
	}
}

func hashFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

// Supports reports whether the platform runs models of the given family
// type ("CNN", "Trans.", ...).
func (p *Platform) Supports(modelType string) bool {
	if p.SupportedTypes == nil {
		return true
	}
	return p.SupportedTypes[modelType]
}

var platforms = map[string]*Platform{}

// registeredHashes holds each registered platform's DescriptorHash.
var registeredHashes map[*Platform]string

func register(p *Platform) {
	if _, dup := platforms[p.Key]; dup {
		panic(fmt.Sprintf("hardware: duplicate platform %q", p.Key))
	}
	platforms[p.Key] = p
}

// Lookup returns the platform for a key.
func Lookup(key string) (*Platform, bool) {
	p, ok := platforms[key]
	return p, ok
}

// Get returns the platform or an error naming the valid keys.
func Get(key string) (*Platform, error) {
	if p, ok := platforms[key]; ok {
		return p, nil
	}
	keys := make([]string, 0, len(platforms))
	for k := range platforms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return nil, fmt.Errorf("hardware: unknown platform %q (have %v)", key, keys)
}

// List returns all platforms in Table 2 order.
func List() []*Platform {
	order := []string{"a100", "rtx4090", "xeon-6330", "xavier-nx", "orin-nx", "rpi4b", "npu3720"}
	out := make([]*Platform, 0, len(order))
	for _, k := range order {
		if p, ok := platforms[k]; ok {
			out = append(out, p)
		}
	}
	return out
}
