// Tests of the public proof API surface: what README and the examples
// promise must keep working.
package proof_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"proof"
)

func TestPublicProfileAndRenderers(t *testing.T) {
	r, err := proof.ProfileCtx(context.Background(), proof.Options{Model: "resnet-50", Platform: "a100", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	proof.WriteText(&text, r, 5)
	if !strings.Contains(text.String(), "PRoof report") {
		t.Error("text renderer broken")
	}
	if html := proof.RenderHTML(r); !strings.Contains(html, "<svg") {
		t.Error("HTML renderer broken")
	}
	var csv bytes.Buffer
	if err := proof.WriteCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "layer,") {
		t.Error("CSV renderer broken")
	}
	var trace bytes.Buffer
	proof.WriteFullStackTrace(&trace, r, 3)
	if !strings.Contains(trace.String(), "Full-stack trace") {
		t.Error("trace renderer broken")
	}
}

func TestPublicModelAndPlatformListing(t *testing.T) {
	if len(proof.Models()) < 21 {
		t.Error("model zoo shrank")
	}
	if len(proof.Platforms()) != 7 {
		t.Error("platform list shrank")
	}
	p, err := proof.LookupPlatform("orin-nx")
	if err != nil || p.Clocks == nil {
		t.Fatalf("orin-nx lookup: %v", err)
	}
	if _, err := proof.BuildModel("vit-t"); err != nil {
		t.Fatal(err)
	}
	if _, err := proof.ParseDataType("fp16"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicModelSaveLoad(t *testing.T) {
	g, err := proof.BuildModel("mobilenetv2-0.5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proof.SaveModel(g, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := proof.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := proof.ProfileCtx(context.Background(), proof.Options{Graph: back, Platform: "rpi4b", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Model != "mobilenetv2-0.5" {
		t.Errorf("model = %s", r.Model)
	}
}

func TestPublicGraphTransforms(t *testing.T) {
	g, err := proof.BuildModel("shufflenetv2-1.0")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := proof.OptimizeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ConstantsFolded == 0 {
		t.Error("folding did nothing")
	}
	g2, err := proof.BuildModel("resnet-50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proof.QuantizeInt8(g2); err != nil {
		t.Fatal(err)
	}
	r, err := proof.ProfileCtx(context.Background(), proof.Options{Graph: g2, Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.DType != "int8" {
		t.Errorf("quantized dtype = %s", r.DType)
	}
}

func TestPublicPowerWorkflow(t *testing.T) {
	peak, err := proof.MeasurePeakCtx(context.Background(), "orin-nx", proof.Float16, proof.Clocks{GPUMHz: 918, EMCMHz: 3199, CPUClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if peak.FLOPS < 1e12 || peak.BW < 1e10 {
		t.Errorf("peak = %+v", peak)
	}
	res, err := proof.TuneClocks(context.Background(), "orin-nx", "efficientnetv2-t", 8, proof.Float16, 15, 0.45, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal.PowerW > 15 {
		t.Error("tuning exceeded budget")
	}
	if len(proof.StockPowerProfiles()) != 3 {
		t.Error("stock profiles")
	}
}

func TestPublicBatchAndDistributed(t *testing.T) {
	best, points, err := proof.OptimalBatchCtx(context.Background(), proof.Options{Model: "mobilenetv2-1.0", Platform: "a100"},
		[]int{1, 16, 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best < 16 || len(points) == 0 {
		t.Errorf("best batch = %d", best)
	}
	curve, err := proof.DistributedScalingCurve(context.Background(), proof.DistributedOptions{
		Model: "resnet-50", Platform: "a100", GlobalBatch: 64,
	}, []int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 || curve[1].Efficiency >= 1 {
		t.Errorf("scaling curve = %+v", curve)
	}
}

// TestPublicWorkflowsThroughSession: the power and distributed entry
// points route every profile through the session they are given, so a
// repeat executes no pipeline.
func TestPublicWorkflowsThroughSession(t *testing.T) {
	ctx := context.Background()
	sess := proof.NewSession(0)
	run := func() {
		t.Helper()
		if _, err := proof.TuneClocks(ctx, "orin-nx", "mobilenetv2-1.0", 8, proof.Float16, 15, 0.45, sess); err != nil {
			t.Fatal(err)
		}
		if _, err := proof.EvaluatePowerProfile(ctx, "orin-nx", "mobilenetv2-1.0", 8, proof.Float16, proof.StockPowerProfiles()[0], sess); err != nil {
			t.Fatal(err)
		}
		opts := proof.DistributedOptions{Model: "resnet-50", Platform: "a100", GlobalBatch: 64}
		if _, err := proof.DistributedScalingCurve(ctx, opts, []int{1, 4}, sess); err != nil {
			t.Fatal(err)
		}
		opts.Devices = 4
		if _, err := proof.ProfileDistributed(ctx, opts, sess); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := sess.Stats()
	run()
	if st := sess.Stats(); st.Misses != before.Misses || st.Hits <= before.Hits {
		t.Errorf("repeat: stats %+v after %+v, want hits only", st, before)
	}
}

func TestPublicFileFormats(t *testing.T) {
	g, err := proof.BuildModel("mobilenetv2-0.5")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"m.onnx", "m.json"} {
		path := dir + "/" + name
		if err := proof.SaveModelFile(g, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := proof.LoadModelFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(back.Nodes) != len(g.Nodes) {
			t.Errorf("%s: node count changed", name)
		}
	}
	data, err := proof.ExportONNX(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proof.LoadONNX(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSweepsAndStats(t *testing.T) {
	results, err := proof.PlatformSweepCtx(context.Background(), "mobilenetv2-0.5", proof.ModePredicted, nil)
	if err != nil || len(results) != 7 {
		t.Fatalf("sweep: %v, %d", err, len(results))
	}
	stats, err := proof.ProfileRunsCtx(context.Background(), proof.Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 4}, 3, nil)
	if err != nil || stats.Runs != 3 {
		t.Fatalf("runs: %v", err)
	}
	w, err := proof.EvaluatePowerProfile(context.Background(), "orin-nx", "mobilenetv2-1.0", 8, proof.Float16, proof.StockPowerProfiles()[0], nil)
	if err != nil || w.PowerW <= 0 || w.EnergyJ <= 0 {
		t.Fatalf("power profile: %v, %+v", err, w)
	}
}

func TestPublicRenderExtras(t *testing.T) {
	r, err := proof.ProfileCtx(context.Background(), proof.Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proof.WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("chrome trace broken")
	}
	r2, err := proof.ProfileCtx(context.Background(), proof.Options{Model: "mobilenetv2-1.0", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cmp bytes.Buffer
	proof.CompareReports(&cmp, "half", r, "full", r2)
	if !strings.Contains(cmp.String(), "speedup") {
		t.Error("comparison broken")
	}
	svg := proof.RooflineSVG(r.Roofline, []proof.RooflinePoint{r.EndToEnd}, "api test")
	if !strings.Contains(svg, "<svg") {
		t.Error("svg broken")
	}
	var findings bytes.Buffer
	proof.WriteFindings(&findings, proof.Advise(r))
	if findings.Len() == 0 {
		t.Error("findings rendering broken")
	}
}

func TestPublicKernelAttribution(t *testing.T) {
	r, err := proof.ProfileCtx(context.Background(), proof.Options{Model: "resnet-50", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range r.Layers {
		if l.IsReformat || len(l.Kernels) == 0 {
			continue
		}
		model, backendLayer, ok := proof.AttributeKernel(r, l.Kernels[0].Name)
		if !ok || backendLayer != l.Name || len(model) == 0 {
			t.Fatalf("attribution failed for %q", l.Kernels[0].Name)
		}
		return
	}
	t.Fatal("no kernel found")
}
