package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/roofline"
)

// Table5Row is one batch-size row of the ShuffleNetV2 modification
// study (Table 5).
type Table5Row struct {
	Model   string
	ParamsM float64
	// Accuracy carries the paper's re-training result (68.9% original,
	// 70.1% modified); performance simulation cannot produce it.
	AccuracyPct float64
	Batch       int
	GFLOP       float64
	Latency     time.Duration
	Throughput  float64
	GFLOPS      float64
	BandwidthGB float64
	// Speedup vs the original model at the same batch (1.0 for the
	// original rows).
	Speedup float64
}

// Table5Batches are the paper's batch sizes.
var Table5Batches = []int{1, 128, 2048}

// paperAccuracy carries the published ImageNet Top-1 results of §4.5.
var paperAccuracy = map[string]float64{
	"shufflenetv2-1.0":     68.9,
	"shufflenetv2-1.0-mod": 70.1,
}

// Table5 reproduces the §4.5 effectiveness study: original vs modified
// ShuffleNetV2 x1.0 on the A100 at fp16 across batch sizes.
func Table5(ctx context.Context, batches []int) ([]Table5Row, error) {
	if batches == nil {
		batches = Table5Batches
	}
	var rows []Table5Row
	originalLatency := map[int]time.Duration{}
	for _, key := range []string{"shufflenetv2-1.0", "shufflenetv2-1.0-mod"} {
		for _, batch := range batches {
			r, err := profileFor(ctx, key, "a100", batch, core.Options{DType: graph.Float16})
			if err != nil {
				return nil, fmt.Errorf("table5: %s bs%d: %w", key, batch, err)
			}
			row := Table5Row{
				Model:       key,
				ParamsM:     r.ParamsM,
				AccuracyPct: paperAccuracy[key],
				Batch:       batch,
				GFLOP:       float64(r.EndToEnd.FLOP) / 1e9,
				Latency:     r.TotalLatency,
				Throughput:  r.Throughput,
				GFLOPS:      r.EndToEnd.FLOPS / 1e9,
				BandwidthGB: r.EndToEnd.Bandwidth / 1e9,
				Speedup:     1,
			}
			if key == "shufflenetv2-1.0" {
				originalLatency[batch] = r.TotalLatency
			} else if base := originalLatency[batch]; base > 0 {
				row.Speedup = float64(base) / float64(r.TotalLatency)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5: Effectiveness of the modified ShuffleNetV2 x1.0 (A100, fp16).\n")
	fmt.Fprintf(&sb, "%-22s %8s %7s %6s %10s %11s %13s %10s %9s %8s\n",
		"Model", "Params", "Top-1", "Batch", "GFLOP", "Latency", "images/s", "GFLOP/s", "GB/s", "Speedup")
	for _, r := range rows {
		speed := "-"
		if r.Speedup != 1 {
			speed = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(&sb, "%-22s %7.2fM %6.1f%% %6d %10.3f %11s %13.0f %10.1f %9.1f %8s\n",
			r.Model, r.ParamsM, r.AccuracyPct, r.Batch, r.GFLOP,
			fmtDur(r.Latency), r.Throughput, r.GFLOPS, r.BandwidthGB, speed)
	}
	sb.WriteString("(Top-1 accuracies are the paper's re-training results, carried as constants.)\n")
	return sb.String()
}

// Figure6Result is the layer-wise analysis of original vs modified
// ShuffleNetV2 (Figure 6), in PRoof's prediction mode as in the paper.
type Figure6Result struct {
	Original *core.Report
	Modified *core.Report
}

// Figure6 runs the layer-wise roofline analysis of §4.5 (prediction
// mode, fp16; the paper uses batch 2048).
func Figure6(ctx context.Context, batch int) (*Figure6Result, error) {
	orig, err := profileFor(ctx, "shufflenetv2-1.0", "a100", batch, core.Options{DType: graph.Float16})
	if err != nil {
		return nil, err
	}
	mod, err := profileFor(ctx, "shufflenetv2-1.0-mod", "a100", batch, core.Options{DType: graph.Float16})
	if err != nil {
		return nil, err
	}
	return &Figure6Result{Original: orig, Modified: mod}, nil
}

// DataMovementShare sums the latency share of transpose and copy layers
// — the quantity Figure 6 shows collapsing after the modification.
func DataMovementShare(r *core.Report) float64 {
	var share float64
	for _, l := range r.Layers {
		switch l.Category {
		case "transpose", "copy", "datamove":
			share += l.Point.Share
		}
	}
	return share
}

// ConvShare sums the latency share of convolution layers.
func ConvShare(r *core.Report) float64 {
	var share float64
	for _, l := range r.Layers {
		switch l.Category {
		case "conv", "pwconv", "dwconv":
			share += l.Point.Share
		}
	}
	return share
}

// FormatFigure6 summarizes the before/after distributions.
func FormatFigure6(f *Figure6Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: ShuffleNetV2 layer-wise roofline, original vs modified (A100, fp16, batch %d, prediction mode).\n",
		f.Original.Batch)
	describe := func(label string, r *core.Report) {
		fmt.Fprintf(&sb, "(%s) latency %s, %.2f TFLOP/s end-to-end\n",
			label, fmtDur(r.TotalLatency), r.EndToEnd.FLOPS/1e12)
		fmt.Fprintf(&sb, "    conv layers:          %5.1f%% of latency\n", ConvShare(r)*100)
		fmt.Fprintf(&sb, "    transpose+copy layers:%5.1f%% of latency\n", DataMovementShare(r)*100)
	}
	describe("original", f.Original)
	describe("modified", f.Modified)
	fmt.Fprintf(&sb, "speedup: %.2fx\n", float64(f.Original.TotalLatency)/float64(f.Modified.TotalLatency))
	return sb.String()
}

// Figure6Points extracts the roofline points of a report (for the
// dataviewer charts).
func Figure6Points(r *core.Report) []roofline.Point {
	pts := make([]roofline.Point, 0, len(r.Layers))
	for _, l := range r.Layers {
		pts = append(pts, l.Point)
	}
	return pts
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	}
	return fmt.Sprintf("%.1fµs", float64(d)/1e3)
}
