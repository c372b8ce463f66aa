package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/power"
	"proof/internal/roofline"
)

// Table6Pairs are the paper's five clock configurations.
var Table6Pairs = [][2]int{
	{918, 3199}, {918, 2133}, {510, 3199}, {510, 2133}, {510, 665},
}

// Table6Paper holds the published achieved peaks and power for
// comparison (TFLOP/s, GB/s, W).
var Table6Paper = [][3]float64{
	{13.620, 87.879, 23.6},
	{13.601, 62.031, 21.3},
	{7.433, 54.002, 15.7},
	{7.426, 53.017, 13.6},
	{7.359, 15.177, 11.5},
}

// Table6Ctx measures the achieved roofline peak and power on the Orin
// NX at the paper's clock configurations.
func Table6Ctx(ctx context.Context) ([]power.PeakRow, error) {
	return power.PeakSweepCtx(ctx, "orin-nx", graph.Float16, Table6Pairs)
}

// FormatTable6 renders Table 6 alongside the paper's values.
func FormatTable6(rows []power.PeakRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 6: Achieved roofline peak and power at different clock speeds (Orin NX, peak-test pseudo model).\n")
	fmt.Fprintf(&sb, "%2s %9s %10s | %10s %10s %7s | %10s %10s %7s\n",
		"#", "GPU(MHz)", "EMC(MHz)", "TFLOP/s", "BW GB/s", "Power", "paper TF", "paper BW", "paper W")
	for i, r := range rows {
		var ref [3]float64
		if i < len(Table6Paper) {
			ref = Table6Paper[i]
		}
		fmt.Fprintf(&sb, "%2d %9d %10d | %10.3f %10.3f %6.1fW | %10.3f %10.3f %6.1fW\n",
			i+1, r.GPUMHz, r.EMCMHz, r.FLOPS/1e12, r.BW/1e9, r.PowerW, ref[0], ref[1], ref[2])
	}
	return sb.String()
}

// Table7Row is one power-profile row of Table 7, extended with energy
// efficiency (the quantity the §4.6 trade-off ultimately optimizes).
type Table7Row struct {
	Profile string
	CPU     string
	GPUMHz  int
	EMCMHz  int
	Latency time.Duration
	PowerW  float64
	// SamplesPerJoule is the energy efficiency at the profiled batch.
	SamplesPerJoule float64
}

// Table7 evaluates EfficientNetV2-T under the stock, comparison and
// tuned power profiles on the Orin NX, every point through the shared
// session.
func Table7(ctx context.Context, batch int) ([]Table7Row, *power.TuneResult, error) {
	const (
		platform = "orin-nx"
		workload = "efficientnetv2-t"
	)
	var rows []Table7Row
	add := func(p power.Profile) error {
		w, err := power.EvaluateProfile(ctx, platform, workload, batch, graph.Float16, p, session.ProfileCtx)
		if err != nil {
			return err
		}
		rows = append(rows, Table7Row{
			Profile:         p.Name,
			CPU:             p.CPU,
			GPUMHz:          p.Clocks.GPUMHz,
			EMCMHz:          p.Clocks.EMCMHz,
			Latency:         w.Latency,
			PowerW:          w.PowerW,
			SamplesPerJoule: w.SamplesPerJoule,
		})
		return nil
	}
	for _, p := range power.StockProfiles() {
		if err := add(p); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range power.ComparisonProfiles() {
		if err := add(p); err != nil {
			return nil, nil, err
		}
	}
	tune, err := power.Tune(ctx, platform, workload, batch, graph.Float16, 15.0, 0.45, session.ProfileCtx)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, Table7Row{
		Profile:         "optimal (ours)",
		CPU:             tune.Optimal.Profile.CPU,
		GPUMHz:          tune.Optimal.Profile.Clocks.GPUMHz,
		EMCMHz:          tune.Optimal.Profile.Clocks.EMCMHz,
		Latency:         tune.Optimal.Latency,
		PowerW:          tune.Optimal.PowerW,
		SamplesPerJoule: tune.Optimal.SamplesPerJoule,
	})
	return rows, tune, nil
}

// FormatTable7 renders Table 7.
func FormatTable7(rows []Table7Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 7: EfficientNetV2-T performance and power under different power profiles (Orin NX).\n")
	fmt.Fprintf(&sb, "%-22s %2s %10s %6s %6s %12s %8s %10s\n",
		"Profile", "#", "CPU", "GPU", "EMC", "Latency", "Power", "img/J")
	for i, r := range rows {
		fmt.Fprintf(&sb, "%-22s %2d %10s %6d %6d %12s %7.1fW %10.1f\n",
			r.Profile, i+1, r.CPU, r.GPUMHz, r.EMCMHz, fmtDur(r.Latency), r.PowerW, r.SamplesPerJoule)
	}
	return sb.String()
}

// Figure8Result is the layer-wise roofline of EfficientNetV2-T on the
// Orin NX at maximum clocks, with the lower-EMC bandwidth lines.
type Figure8Result struct {
	Report  *core.Report
	BWLines []roofline.BWLine
	// EMCAnalyses quantifies the latency share above each line.
	EMCAnalyses []power.EMCAnalysis
}

// Figure8 reproduces §4.6's layer-wise analysis (fp16; the paper uses
// batch 128) through the shared session.
func Figure8(ctx context.Context, batch int) (*Figure8Result, error) {
	plat, err := hardware.Get("orin-nx")
	if err != nil {
		return nil, err
	}
	analyses, report, err := power.AnalyzeEMC(ctx, "orin-nx", "efficientnetv2-t", batch, graph.Float16, []int{3199, 2133, 665}, session.ProfileCtx)
	if err != nil {
		return nil, err
	}
	var lines []roofline.BWLine
	for _, a := range analyses {
		if a.EMCMHz == plat.Clocks.EMCMaxMHz {
			continue
		}
		lines = append(lines, roofline.BWLine{
			Label: fmt.Sprintf("EMC %d MHz (%.1f GB/s)", a.EMCMHz, a.BWLine/1e9),
			BW:    a.BWLine,
		})
	}
	return &Figure8Result{Report: report, BWLines: lines, EMCAnalyses: analyses}, nil
}

// FormatFigure8 summarizes the bandwidth-line analysis.
func FormatFigure8(f *Figure8Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: layer-wise roofline for EfficientNetV2-T (Orin NX, fp16, batch %d).\n", f.Report.Batch)
	fmt.Fprintf(&sb, "  conv layers take %.1f%% of latency (paper: ~70%%)\n", ConvShare(f.Report)*100)
	for _, a := range f.EMCAnalyses {
		fmt.Fprintf(&sb, "  EMC %4d MHz line (%.1f GB/s): %.1f%% of latency above it\n",
			a.EMCMHz, a.BWLine/1e9, a.AffectedShare*100)
	}
	return sb.String()
}
