package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
	"proof/internal/parallel"
	"proof/internal/roofline"
)

// Figure4Series is the end-to-end roofline of all models on one
// platform (one sub-chart of Figure 4).
type Figure4Series struct {
	Platform string
	DType    string
	Batch    int
	Model    roofline.Model
	// Points carry one end-to-end point per model, named by Table 3
	// serial number and model key.
	Points []roofline.Point
	// Skipped lists models not run on this platform, with reasons
	// (mirroring the paper's footnotes).
	Skipped map[string]string
}

// figure4Batch returns the paper's per-model batch override (Stable
// Diffusion runs at batch 4).
func figure4Batch(plat *hardware.Platform, key string) int {
	if key == "sd-unet" {
		return 4
	}
	return plat.DefaultBatch
}

// figure4Skip reproduces the paper's coverage: transformer/diffusion
// models are skipped on edge platforms; Stable Diffusion additionally
// fails on the int8 desktop GPU and is not tested on CPU (§4.3
// footnote); the NPU only runs a small portion of models.
func figure4Skip(plat *hardware.Platform, info models.Info) string {
	if !plat.Supports(info.Type) {
		return "platform does not support model family"
	}
	isEdge := strings.HasPrefix(plat.Scenario, "Edge")
	if isEdge && (info.Type == "Trans." || info.Type == "Diffu.") {
		return "transformer/diffusion models not evaluated on edge platforms"
	}
	if info.Key == "sd-unet" {
		switch plat.Key {
		case "rtx4090":
			return "TensorRT int8 conversion fails for Stable Diffusion"
		case "xeon-6330", "rpi4b":
			return "Stable Diffusion not tested on CPU"
		}
	}
	return ""
}

// Figure4 profiles every applicable model on one platform and returns
// the end-to-end roofline series.
func Figure4(ctx context.Context, platform string) (*Figure4Series, error) {
	plat, err := hardware.Get(platform)
	if err != nil {
		return nil, err
	}
	series := &Figure4Series{
		Platform: plat.Key,
		DType:    plat.DefaultDType.String(),
		Batch:    plat.DefaultBatch,
		Model:    roofline.NewModel(plat, plat.DefaultDType, plat.ResolveClocks(hardware.Clocks{})),
		Skipped:  map[string]string{},
	}
	for _, info := range models.List() {
		if info.ID == 0 {
			continue
		}
		if reason := figure4Skip(plat, info); reason != "" {
			series.Skipped[info.Key] = reason
			continue
		}
		r, err := profileFor(ctx, info.Key, platform, figure4Batch(plat, info.Key), core.Options{})
		if err != nil {
			return nil, fmt.Errorf("figure4: %s on %s: %w", info.Key, platform, err)
		}
		p := r.EndToEnd
		p.Name = fmt.Sprintf("#%d %s", info.ID, info.Key)
		series.Points = append(series.Points, p)
	}
	return series, nil
}

// Figure4AllCtx runs Figure 4 for every platform, fanning the
// independent platform sweeps across workers. Cancelling ctx stops
// dispatching platforms and unwinds the fan-out with ctx.Err(). Every
// per-model profiling point goes through the shared session, so a
// regeneration that already profiled an overlapping point (say Figure 5
// after Figure 4 on the A100) is served from cache.
func Figure4AllCtx(ctx context.Context) ([]*Figure4Series, error) {
	return parallel.MapCtx(ctx, hardware.List(), 0, func(ctx context.Context, p *hardware.Platform) (*Figure4Series, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Figure4(ctx, p.Key)
	})
}

// FormatFigure4 renders one Figure 4 series as a text table.
func FormatFigure4(s *Figure4Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4 (%s, %s, batch %d): end-to-end roofline — ridge AI %.1f, peak %.2f TFLOP/s, BW %.1f GB/s\n",
		s.Platform, s.DType, s.Batch, s.Model.RidgeAI(), s.Model.PeakFLOPS/1e12, s.Model.PeakBW/1e9)
	fmt.Fprintf(&sb, "  %-28s %8s %12s %10s %8s\n", "model", "AI", "TFLOP/s", "GB/s", "bound")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "  %-28s %8.2f %12.3f %10.1f %8s\n",
			p.Name, p.AI, p.FLOPS/1e12, p.Bandwidth/1e9, p.Bound)
	}
	keys := make([]string, 0, len(s.Skipped))
	for key := range s.Skipped {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(&sb, "  (skipped %s: %s)\n", key, s.Skipped[key])
	}
	return sb.String()
}

// Figure5Models are the four models of the layer-wise analysis, with
// the paper's metric mode (measured, except ViT where DLProf crashed
// and the paper fell back to the analytical model).
var Figure5Models = []struct {
	Key  string
	Mode core.Mode
}{
	{"resnet-50", core.ModeMeasured},
	{"vit-t", core.ModePredicted},
	{"efficientnet-b4", core.ModeMeasured},
	{"efficientnetv2-t", core.ModeMeasured},
}

// Figure5 runs the layer-wise roofline analysis of §4.4 on the A100
// (fp16, batch 128 in the paper; batch is a parameter for test speed).
func Figure5(ctx context.Context, batch int) (map[string]*core.Report, error) {
	out := map[string]*core.Report{}
	for _, m := range Figure5Models {
		r, err := profileFor(ctx, m.Key, "a100", batch, core.Options{Mode: m.Mode, DType: graph.Float16})
		if err != nil {
			return nil, fmt.Errorf("figure5: %s: %w", m.Key, err)
		}
		out[m.Key] = r
	}
	return out, nil
}

// FormatFigure5 summarizes the layer-wise distributions.
func FormatFigure5(reports map[string]*core.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: layer-wise roofline on A100 (fp16).\n")
	for _, m := range Figure5Models {
		r := reports[m.Key]
		if r == nil {
			continue
		}
		fmt.Fprintf(&sb, "(%s, %s mode): %d backend layers, end-to-end %.3f TFLOP/s\n",
			m.Key, r.Mode, len(r.Layers), r.EndToEnd.FLOPS/1e12)
		shares := map[string]float64{}
		for _, l := range r.Layers {
			shares[l.Category] += l.Point.Share
		}
		for _, cat := range []string{"conv", "pwconv", "dwconv", "matmul", "transpose", "copy", "elementwise"} {
			if shares[cat] > 0.005 {
				fmt.Fprintf(&sb, "    %-10s %5.1f%% of latency\n", cat, shares[cat]*100)
			}
		}
	}
	return sb.String()
}
