// Package power implements the §4.6 case study: maximizing a DNN
// workload's performance on the Jetson Orin NX under a power budget by
// tuning the GPU and memory (EMC) clocks with PRoof's roofline guidance.
//
// The workflow is the paper's: (1) measure the achieved roofline peak at
// candidate clock configurations (Table 6); (2) run a layer-wise
// roofline analysis of the workload at maximum clocks and overlay the
// bandwidth lines of the lower memory clocks (Figure 8) — pick the
// lowest memory clock whose line only clips a small share of the
// latency; (3) binary-search the GPU clock for the highest setting whose
// power stays under the budget (Table 7).
package power

import (
	"context"
	"fmt"
	"sort"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/roofline"
)

// Profile is an nvpmodel-style power profile: a named clock
// configuration (Table 7 rows).
type Profile struct {
	// Name labels the profile ("stock MAXN", "optimal (ours)", ...).
	Name string
	// CPU describes the cluster configuration ("729/729", "729/off").
	CPU string
	// Clocks is the full clock configuration.
	Clocks hardware.Clocks
}

// StockProfiles are the Jetson's built-in nvpmodel profiles as listed in
// Table 7 (#1-#3).
func StockProfiles() []Profile {
	return []Profile{
		{Name: `stock "MAXN"`, CPU: "729/729", Clocks: hardware.Clocks{GPUMHz: 918, EMCMHz: 3199, CPUMHz: 729, CPUClusters: 2}},
		// The stock "15W" profile sets TPC_PG_MASK=252, power-gating
		// part of the GPU — the inefficiency §4.6 discovers (Table 7
		// #2 runs the same clocks as #7 but far slower).
		{Name: `stock "15W"`, CPU: "729/off", Clocks: hardware.Clocks{GPUMHz: 612, EMCMHz: 3199, CPUMHz: 729, CPUClusters: 1, GPUCapacity: 0.62}},
		{Name: `stock "25W"`, CPU: "729/729", Clocks: hardware.Clocks{GPUMHz: 408, EMCMHz: 3199, CPUMHz: 729, CPUClusters: 2}},
	}
}

// ComparisonProfiles are Table 7's manual comparison rows (#4-#9).
func ComparisonProfiles() []Profile {
	mk := func(gpu, emc int) Profile {
		return Profile{
			Name:   fmt.Sprintf("comparison %d/%d", gpu, emc),
			CPU:    "729/off",
			Clocks: hardware.Clocks{GPUMHz: gpu, EMCMHz: emc, CPUMHz: 729, CPUClusters: 1},
		}
	}
	return []Profile{
		mk(918, 3199), mk(918, 2133), mk(918, 665),
		mk(612, 3199), mk(612, 665), mk(510, 3199),
	}
}

// WorkloadResult is the outcome of running a workload under a profile.
type WorkloadResult struct {
	Profile Profile
	// Latency is the per-inference latency.
	Latency time.Duration
	// PowerW is the estimated power draw during the run.
	PowerW float64
	// EnergyJ is the energy per inference (power x latency).
	EnergyJ float64
	// SamplesPerJoule is the energy efficiency at the profiled batch.
	SamplesPerJoule float64
}

// EvaluateProfile profiles the workload on the platform under the given
// clock profile, through profile (core.ProfileCtx, or a caching
// session's ProfileCtx).
func EvaluateProfile(ctx context.Context, platform, model string, batch int, dt graph.DataType, p Profile, profile core.ProfileFunc) (WorkloadResult, error) {
	r, err := profile(ctx, core.Options{
		Model:    model,
		Platform: platform,
		Batch:    batch,
		DType:    dt,
		Clocks:   p.Clocks,
	})
	if err != nil {
		return WorkloadResult{}, err
	}
	res := WorkloadResult{Profile: p, Latency: r.TotalLatency, PowerW: r.PowerW}
	res.EnergyJ = res.PowerW * res.Latency.Seconds()
	if res.EnergyJ > 0 {
		res.SamplesPerJoule = float64(r.Batch) / res.EnergyJ
	}
	return res, nil
}

// PeakRow is one row of the Table 6 clock/peak/power sweep.
type PeakRow struct {
	GPUMHz, EMCMHz int
	// FLOPS and BW are the achieved roofline peaks.
	FLOPS, BW float64
	// PowerW is the draw during the peak test (full utilization).
	PowerW float64
}

// PeakSweepCtx measures the achieved roofline peak and power at each
// clock pair — the Table 6 baseline. The sweep checks ctx between
// clock pairs via the peak test's own cancellation points.
func PeakSweepCtx(ctx context.Context, platform string, dt graph.DataType, pairs [][2]int) ([]PeakRow, error) {
	plat, err := hardware.Get(platform)
	if err != nil {
		return nil, err
	}
	var rows []PeakRow
	for _, pair := range pairs {
		clk := hardware.Clocks{GPUMHz: pair[0], EMCMHz: pair[1], CPUMHz: 729, CPUClusters: 1}
		peak, err := roofline.MeasurePeak(ctx, plat, dt, clk, 1)
		if err != nil {
			return nil, err
		}
		w, err := plat.EstimatePower(clk, 1, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PeakRow{GPUMHz: pair[0], EMCMHz: pair[1], FLOPS: peak.FLOPS, BW: peak.BW, PowerW: w})
	}
	return rows, nil
}

// EMCAnalysis quantifies, per candidate memory clock, the share of the
// workload's latency spent in layers whose attained bandwidth exceeds
// that clock's achievable bandwidth — the layers "above the line" in
// Figure 8 that a lower memory clock would slow down.
type EMCAnalysis struct {
	// EMCMHz is the candidate memory clock.
	EMCMHz int
	// BWLine is the achievable bandwidth at that clock.
	BWLine float64
	// AffectedShare is the latency share of layers above the line.
	AffectedShare float64
}

// AnalyzeEMC runs the layer-wise analysis at maximum clocks, through
// profile, and evaluates each candidate memory clock.
func AnalyzeEMC(ctx context.Context, platform, model string, batch int, dt graph.DataType, candidates []int, profile core.ProfileFunc) ([]EMCAnalysis, *core.Report, error) {
	plat, err := hardware.Get(platform)
	if err != nil {
		return nil, nil, err
	}
	r, err := profile(ctx, core.Options{Model: model, Platform: platform, Batch: batch, DType: dt})
	if err != nil {
		return nil, nil, err
	}
	var out []EMCAnalysis
	for _, emc := range candidates {
		// Achievable bandwidth at the candidate clock (GPU at max):
		// the same derivation as the roofline ceilings, so the Figure
		// 8 lines and the chart's roof come from one model.
		line := plat.BWCeiling(plat.ResolveClocks(hardware.Clocks{EMCMHz: emc}))
		var affected float64
		for _, l := range r.Layers {
			if l.Point.Bandwidth > line {
				affected += l.Point.Share
			}
		}
		out = append(out, EMCAnalysis{EMCMHz: emc, BWLine: line, AffectedShare: affected})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EMCMHz > out[j].EMCMHz })
	return out, r, nil
}

// TuneResult is the outcome of the full tuning workflow.
type TuneResult struct {
	// EMCAnalyses are the per-candidate memory clock evaluations.
	EMCAnalyses []EMCAnalysis
	// ChosenEMCMHz is the selected memory clock.
	ChosenEMCMHz int
	// ChosenGPUMHz is the selected GPU clock.
	ChosenGPUMHz int
	// Evaluations lists the binary-search probes.
	Evaluations []WorkloadResult
	// Optimal is the final operating point.
	Optimal WorkloadResult
}

// ChooseEMC walks the candidate memory clocks in the given order
// (descending, as AnalyzeEMC sorts them) and returns the last clock
// before the first one whose AffectedShare exceeds threshold. §4.6
// lowers the memory clock only while the bandwidth line stays above
// (nearly) all of the workload; once a candidate clips too much, every
// lower clock clips at least that region too, so the walk stops there
// — it must not keep scanning and adopt a later candidate that merely
// looks acceptable because AffectedShare is not guaranteed monotonic
// (layers cluster in bandwidth bands). fallbackMHz is returned when
// even the first candidate is unacceptable.
func ChooseEMC(analyses []EMCAnalysis, fallbackMHz int, threshold float64) int {
	chosen := fallbackMHz
	for _, a := range analyses {
		if a.AffectedShare > threshold {
			break
		}
		chosen = a.EMCMHz
	}
	return chosen
}

// Tune runs the §4.6 workflow for a workload on a DVFS platform under a
// power budget. affectedThreshold is the maximum tolerable latency
// share above a candidate memory clock's bandwidth line (the paper
// accepts the small clip of EMC 2133 and rejects EMC 665). Every
// profile the workflow runs goes through profile.
func Tune(ctx context.Context, platform, model string, batch int, dt graph.DataType, budgetW, affectedThreshold float64, profile core.ProfileFunc) (*TuneResult, error) {
	plat, err := hardware.Get(platform)
	if err != nil {
		return nil, err
	}
	if plat.Clocks == nil {
		return nil, fmt.Errorf("power: platform %s has no tunable clocks", platform)
	}

	// Step 1+2: pick the memory clock via bandwidth-line analysis.
	candidates := append([]int(nil), plat.Clocks.EMCOptionsMHz...)
	sort.Sort(sort.Reverse(sort.IntSlice(candidates)))
	analyses, _, err := AnalyzeEMC(ctx, platform, model, batch, dt, candidates, profile)
	if err != nil {
		return nil, err
	}
	res := &TuneResult{
		EMCAnalyses:  analyses,
		ChosenEMCMHz: ChooseEMC(analyses, plat.Clocks.EMCMaxMHz, affectedThreshold),
	}

	// Step 3: binary-search the GPU clock options for the highest
	// setting within the power budget.
	opts := append([]int(nil), plat.Clocks.GPUOptionsMHz...)
	sort.Ints(opts)
	lo, hi := 0, len(opts)-1
	best := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		p := Profile{
			Name:   fmt.Sprintf("probe %d/%d", opts[mid], res.ChosenEMCMHz),
			CPU:    "729/off",
			Clocks: hardware.Clocks{GPUMHz: opts[mid], EMCMHz: res.ChosenEMCMHz, CPUMHz: 729, CPUClusters: 1},
		}
		w, err := EvaluateProfile(ctx, platform, model, batch, dt, p, profile)
		if err != nil {
			return nil, err
		}
		res.Evaluations = append(res.Evaluations, w)
		if w.PowerW <= budgetW {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("power: no GPU clock fits the %.1f W budget", budgetW)
	}
	res.ChosenGPUMHz = opts[best]

	optimal := Profile{
		Name:   "optimal (ours)",
		CPU:    "729/off",
		Clocks: hardware.Clocks{GPUMHz: res.ChosenGPUMHz, EMCMHz: res.ChosenEMCMHz, CPUMHz: 729, CPUClusters: 1},
	}
	res.Optimal, err = EvaluateProfile(ctx, platform, model, batch, dt, optimal, profile)
	if err != nil {
		return nil, err
	}
	return res, nil
}
