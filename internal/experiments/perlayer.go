package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

// PerLayerAccuracy extends Table 4 below the model level: the
// distribution of per-backend-layer relative errors between the
// analytical prediction and the simulated counters. The paper reports
// only aggregate diffs; the distribution shows where the analytical
// model is trustworthy layer-by-layer (the granularity Figures 5-8
// actually use).
type PerLayerAccuracy struct {
	Model string
	// Layers counted (reformat layers are excluded: they have no
	// analytical counterpart).
	Layers int
	// MemoryErr are the per-layer |pred/meas - 1| quantiles for DRAM
	// traffic.
	MemoryErrP50, MemoryErrP90, MemoryErrMax float64
	// FLOPErr quantiles (only layers with nonzero FLOP).
	FLOPErrP50, FLOPErrP90 float64
}

// PerLayerTable4Ctx measures per-layer accuracy for the Table 4
// models from the same session reports as Table 4: layer i of the
// predicted report against layer i of the measured one.
func PerLayerTable4Ctx(ctx context.Context, batch int) ([]PerLayerAccuracy, error) {
	var out []PerLayerAccuracy
	for _, m := range table4Models {
		pred, meas, err := table4Reports(ctx, m.key, batch)
		if err != nil {
			return nil, err
		}
		var memErrs, flopErrs []float64
		for i, l := range pred.Layers {
			p, q := l.Point, meas.Layers[i].Point
			if l.IsReformat || q.Bytes == 0 {
				continue
			}
			memErrs = append(memErrs, math.Abs(float64(p.Bytes)/float64(q.Bytes)-1))
			if p.FLOP > 0 && q.FLOP > 0 {
				flopErrs = append(flopErrs, math.Abs(float64(p.FLOP)/float64(q.FLOP)-1))
			}
		}
		acc := PerLayerAccuracy{Model: m.key, Layers: len(memErrs)}
		acc.MemoryErrP50 = quantile(memErrs, 0.5)
		acc.MemoryErrP90 = quantile(memErrs, 0.9)
		acc.MemoryErrMax = quantile(memErrs, 1.0)
		acc.FLOPErrP50 = quantile(flopErrs, 0.5)
		acc.FLOPErrP90 = quantile(flopErrs, 0.9)
		out = append(out, acc)
	}
	return out, nil
}

func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// FormatPerLayerTable4 renders the per-layer accuracy extension.
func FormatPerLayerTable4(rows []PerLayerAccuracy) string {
	var sb strings.Builder
	sb.WriteString("Table 4 extension: per-backend-layer prediction error distribution (A100, fp16).\n")
	fmt.Fprintf(&sb, "%-18s %7s | %9s %9s %9s | %9s %9s\n",
		"Model", "layers", "mem p50", "mem p90", "mem max", "flop p50", "flop p90")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %7d | %8.1f%% %8.1f%% %8.1f%% | %8.1f%% %8.1f%%\n",
			r.Model, r.Layers, r.MemoryErrP50*100, r.MemoryErrP90*100, r.MemoryErrMax*100,
			r.FLOPErrP50*100, r.FLOPErrP90*100)
	}
	return sb.String()
}
