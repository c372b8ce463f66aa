package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/roofline"
	"proof/internal/sim"
)

func TestProfileResNetPredicted(t *testing.T) {
	r, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != ModePredicted {
		t.Errorf("default mode = %s", r.Mode)
	}
	if r.Backend != "trtsim" || r.DType != "fp16" {
		t.Errorf("platform defaults: backend=%s dtype=%s", r.Backend, r.DType)
	}
	if r.TotalLatency <= 0 || r.Throughput <= 0 {
		t.Error("latency/throughput must be positive")
	}
	if r.EndToEnd.FLOPS <= 0 || r.EndToEnd.AI <= 0 {
		t.Error("end-to-end point incomplete")
	}
	if r.EndToEnd.FLOPS > r.Roofline.PeakFLOPS*1.05 {
		t.Errorf("attained FLOP/s %.2e exceeds ceiling %.2e", r.EndToEnd.FLOPS, r.Roofline.PeakFLOPS)
	}
	if len(r.Layers) == 0 {
		t.Fatal("no layers")
	}
	var share float64
	for _, l := range r.Layers {
		share += l.Point.Share
		if !l.IsReformat && len(l.OriginalNodes) == 0 {
			t.Errorf("layer %q has no original-node mapping", l.Name)
		}
		if l.Category == "" {
			t.Errorf("layer %q has no category", l.Name)
		}
	}
	if math.Abs(share-1) > 1e-6 {
		t.Errorf("layer shares sum to %v", share)
	}
	if r.ProfilingOverhead != 0 {
		t.Error("predicted mode must not report profiling overhead")
	}
}

func TestProfileMeasuredMode(t *testing.T) {
	pred, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 8, Mode: ModeMeasured})
	if err != nil {
		t.Fatal(err)
	}
	if meas.ProfilingOverhead <= 0 {
		t.Error("measured mode must report replay overhead")
	}
	// Table 4: analytical and corrected measured FLOP agree within
	// ~25% for ResNet-50 (the paper reports -2%).
	ratio := float64(pred.EndToEnd.FLOP) / float64(meas.EndToEnd.FLOP)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("predicted/measured FLOP = %.3f", ratio)
	}
	// Memory agreement within ~15% (paper reports ~1%; our fused
	// prediction vs counter deviation stays close).
	mratio := float64(pred.EndToEnd.Bytes) / float64(meas.EndToEnd.Bytes)
	if mratio < 0.80 || mratio > 1.20 {
		t.Errorf("predicted/measured bytes = %.3f", mratio)
	}
}

func TestProfileCustomGraph(t *testing.T) {
	g := graph.New("custom")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 32, 32}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{16, 8, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "c", DType: graph.Float32})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "conv", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"c"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))})
	g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"c"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}

	r, err := ProfileCtx(context.Background(), Options{Graph: g, Platform: "rpi4b", Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Model != "custom" || r.Backend != "ortsim" {
		t.Errorf("model=%s backend=%s", r.Model, r.Backend)
	}
}

func TestNPUModelSupportGate(t *testing.T) {
	if _, err := ProfileCtx(context.Background(), Options{Model: "vit-t", Platform: "npu3720"}); err == nil {
		t.Error("NPU should refuse transformer models (as in §4.3)")
	}
	if _, err := ProfileCtx(context.Background(), Options{Model: "vit-t", Platform: "npu3720", IgnoreSupport: true, Batch: 1}); err != nil {
		t.Errorf("IgnoreSupport should force the run: %v", err)
	}
	if _, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "npu3720"}); err != nil {
		t.Errorf("NPU should run CNNs: %v", err)
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := ProfileCtx(context.Background(), Options{Model: "nope", Platform: "a100"}); err == nil {
		t.Error("unknown model must error")
	}
	if _, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "h100"}); err == nil {
		t.Error("unknown platform must error")
	}
	if _, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Backend: "tvm"}); err == nil {
		t.Error("unknown backend must error")
	}
}

func TestBatchAffectsThroughputAndLatency(t *testing.T) {
	r1, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	r128, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	if r128.TotalLatency <= r1.TotalLatency {
		t.Error("larger batch must take longer per inference")
	}
	if r128.Throughput <= r1.Throughput {
		t.Error("larger batch must raise throughput on a data-center GPU")
	}
	if r128.EndToEnd.FLOPS <= r1.EndToEnd.FLOPS {
		t.Error("larger batch must raise attained FLOP/s")
	}
}

func TestOrinClockOptionsAffectLatency(t *testing.T) {
	fast, err := ProfileCtx(context.Background(), Options{Model: "efficientnetv2-t", Platform: "orin-nx", Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ProfileCtx(context.Background(), Options{Model: "efficientnetv2-t", Platform: "orin-nx", Batch: 16,
		Clocks: clocksFor(t, 510, 665)})
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalLatency <= fast.TotalLatency {
		t.Error("down-clocking must slow inference")
	}
	if fast.PowerW <= slow.PowerW {
		t.Error("max clocks must draw more power")
	}
}

func TestMeasuredRoofline(t *testing.T) {
	r, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 8, MeasuredRoofline: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Roofline.PeakFLOPS <= 0 || r.Roofline.PeakFLOPS > r.Roofline.TheoreticalFLOPS {
		t.Errorf("measured roofline peak = %v", r.Roofline.PeakFLOPS)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r, err := ProfileCtx(context.Background(), Options{Model: "mobilenetv2-1.0", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Model != r.Model || len(back.Layers) != len(r.Layers) {
		t.Error("JSON round trip lost data")
	}
}

func TestShuffleNetCategoriesPresent(t *testing.T) {
	r, err := ProfileCtx(context.Background(), Options{Model: "shufflenetv2-1.0", Platform: "a100", Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for _, l := range r.Layers {
		cats[l.Category] = true
	}
	for _, want := range []string{"transpose", "dwconv", "pwconv"} {
		if !cats[want] {
			t.Errorf("ShuffleNetV2 layer-wise analysis missing category %q (have %v)", want, cats)
		}
	}
}

// TestProfileEinsumAttention drives an Einsum-based attention graph
// (the form some transformer exports take) through the full pipeline.
func TestProfileEinsumAttention(t *testing.T) {
	g := graph.New("einsum-attn")
	g.AddTensor(&graph.Tensor{Name: "q", DType: graph.Float32, Shape: graph.Shape{1, 8, 64, 32}})
	g.AddTensor(&graph.Tensor{Name: "k", DType: graph.Float32, Shape: graph.Shape{1, 8, 64, 32}})
	g.AddTensor(&graph.Tensor{Name: "v", DType: graph.Float32, Shape: graph.Shape{1, 8, 64, 32}})
	for _, name := range []string{"scores", "probs", "ctx"} {
		g.AddTensor(&graph.Tensor{Name: name, DType: graph.Float32})
	}
	g.AddNode(&graph.Node{Name: "qk", OpType: "Einsum", Inputs: []string{"q", "k"}, Outputs: []string{"scores"},
		Attrs: graph.Attrs{graph.StringAttr("equation", "bhid,bhjd->bhij")}})
	g.AddNode(&graph.Node{Name: "softmax", OpType: "Softmax", Inputs: []string{"scores"}, Outputs: []string{"probs"},
		Attrs: graph.Attrs{graph.IntAttr("axis", -1)}})
	g.AddNode(&graph.Node{Name: "av", OpType: "Einsum", Inputs: []string{"probs", "v"}, Outputs: []string{"ctx"},
		Attrs: graph.Attrs{graph.StringAttr("equation", "bhij,bhjd->bhid")}})
	g.Inputs = []string{"q", "k", "v"}
	g.Outputs = []string{"ctx"}

	r, err := ProfileCtx(context.Background(), Options{Graph: g, Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The two einsums carry the FLOP: 2 contractions of
	// 4*8*64*64*32 MACs each at batch 4.
	wantFLOP := int64(2 * 2 * 4 * 8 * 64 * 64 * 32)
	gotFLOP := r.EndToEnd.FLOP
	// Softmax adds a little on top.
	if gotFLOP < wantFLOP || gotFLOP > wantFLOP+wantFLOP/5 {
		t.Errorf("einsum attention FLOP = %d, want ~%d", gotFLOP, wantFLOP)
	}
	// On trtsim the three ops form one Myelin region.
	myelin := false
	for _, l := range r.Layers {
		if len(l.OriginalNodes) >= 3 {
			myelin = true
		}
	}
	if !myelin {
		t.Error("einsum attention should fuse into one region on trtsim")
	}
}

func clocksFor(t *testing.T, gpu, emc int) (c hardware.Clocks) {
	t.Helper()
	c.GPUMHz, c.EMCMHz, c.CPUClusters = gpu, emc, 1
	return c
}

// TestParseMode covers the wire-facing mode validation.
func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{
		"": ModePredicted, "predicted": ModePredicted, "measured": ModeMeasured,
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"Predicted", "MEASURED", "psychic", "predicted "} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) succeeded, want error", bad)
		}
	}
}

// TestAssembledReportAggregates: the tail derives each layer's latency
// share, the end-to-end point, the throughput and the aggregate
// utilization from the layers' figures. Over hand-built layers the
// figures are exact, a report without layers reads zero throughout, and
// over the golden configurations the aggregates agree with the layers.
func TestAssembledReportAggregates(t *testing.T) {
	r, err := Resolve(Options{Model: "resnet-18", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	rl := roofline.NewModel(r.Plat, r.DType, r.Clocks)
	const ms = time.Millisecond
	figures := []layerFigures{
		{timing: sim.Timing{Latency: 2 * ms, ComputeTime: 1600 * time.Microsecond, MemoryTime: 400 * time.Microsecond},
			flop: 1e9, bytes: 1e7, category: "conv"},
		{timing: sim.Timing{Latency: 6 * ms, ComputeTime: 2400 * time.Microsecond, MemoryTime: 9 * ms},
			flop: 3e9, bytes: 3e7, category: "matmul"},
	}
	rep := &Report{Model: r.Model, Batch: r.Batch, Roofline: rl, Layers: []LayerReport{{Name: "a"}, {Name: "b"}}}
	var sums layerSums
	for i := range figures {
		sums.add(&rep.Layers[i], &figures[i], rl)
	}
	rep.finish(&sums, &r)
	if a, b := rep.Layers[0].Point, rep.Layers[1].Point; math.Abs(a.Share-0.25) > 1e-9 || math.Abs(b.Share-0.75) > 1e-9 {
		t.Errorf("shares = %v, %v, want 0.25, 0.75", a.Share, b.Share)
	}
	if c := rep.Layers[1].Point.Category; c != "matmul" {
		t.Errorf("point category = %q, want the layer's", c)
	}
	if rep.TotalLatency != 8*ms {
		t.Errorf("total latency = %v, want 8ms", rep.TotalLatency)
	}
	if e := rep.EndToEnd; e.Name != "resnet-18" || e.FLOP != 4e9 || e.Bytes != 4e7 || e.Latency != 8*ms {
		t.Errorf("end-to-end point = %+v, want resnet-18 at 4e9 FLOP, 4e7 bytes, 8ms", e)
	}
	if want := 4 / 0.008; math.Abs(rep.Throughput-want) > 1e-9 {
		t.Errorf("throughput = %v, want %v", rep.Throughput, want)
	}
	// Compute time is half the latency; memory time exceeds it, so its
	// utilization caps at 1.
	if math.Abs(rep.UtilCompute-0.5) > 1e-9 || rep.UtilMem != 1 {
		t.Errorf("utilization = %v compute, %v memory, want 0.5 and 1", rep.UtilCompute, rep.UtilMem)
	}

	empty := &Report{Model: r.Model, Batch: r.Batch, Roofline: rl}
	empty.finish(&layerSums{}, &r)
	if empty.TotalLatency != 0 || empty.Throughput != 0 || empty.UtilCompute != 0 || empty.UtilMem != 0 || empty.EndToEnd.Latency != 0 {
		t.Errorf("a report without layers finished as %+v, want zero latency, throughput and utilization", empty)
	}

	for _, cfg := range goldenConfigs {
		rep, err := ProfileCtx(context.Background(), cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		var share float64
		var flop, bytes int64
		var total time.Duration
		for _, l := range rep.Layers {
			share += l.Point.Share
			flop += l.Point.FLOP
			bytes += l.Point.Bytes
			total += l.Point.Latency
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v, want 1", cfg.name, share)
		}
		if e := rep.EndToEnd; e.FLOP != flop || e.Bytes != bytes || e.Latency != total || rep.TotalLatency != total {
			t.Errorf("%s: end-to-end %d FLOP, %d bytes, %v (total %v); layers sum to %d, %d, %v",
				cfg.name, e.FLOP, e.Bytes, e.Latency, rep.TotalLatency, flop, bytes, total)
		}
		if rep.UtilCompute <= 0 || rep.UtilCompute > 1 || rep.UtilMem <= 0 || rep.UtilMem > 1 {
			t.Errorf("%s: utilization %v compute, %v memory, want both in (0, 1]", cfg.name, rep.UtilCompute, rep.UtilMem)
		}
	}
}
