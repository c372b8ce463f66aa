package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/obs"
)

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 7 {
		t.Fatalf("Table 2 has %d rows, want 7", len(rows))
	}
	out := FormatTable2(rows)
	for _, want := range []string{"A100", "RTX 4090", "Xeon", "Xavier", "Orin", "Raspberry", "NPU"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("Table 3 has %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		relP := r.ParamsM / r.PaperParamsM
		if relP < 0.85 || relP > 1.15 {
			t.Errorf("%s: params %.1fM vs paper %.1fM", r.Name, r.ParamsM, r.PaperParamsM)
		}
		relG := r.GFLOP / r.PaperGFLOP
		if relG < 0.90 || relG > 1.10 {
			t.Errorf("%s: GFLOP %.3f vs paper %.3f", r.Name, r.GFLOP, r.PaperGFLOP)
		}
	}
	if !strings.Contains(FormatTable3(rows), "ResNet-50") {
		t.Error("formatting broken")
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	rows, err := Table4WithBatchCtx(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table 4 has %d rows", len(rows))
	}
	byModel := map[string]Table4Row{}
	for _, r := range rows {
		byModel[r.Model] = r
		// Memory prediction within +/-12% (paper: a few percent).
		if r.MemoryDiff < -0.12 || r.MemoryDiff > 0.12 {
			t.Errorf("%s: memory diff %.1f%% too large", r.Model, r.MemoryDiff*100)
		}
		// Counter profiling must dwarf the analytical model's
		// negligible cost: minutes of replay per model.
		if r.ProfTimeSec < 30 {
			t.Errorf("%s: profiling time %.0fs, expected minutes", r.Model, r.ProfTimeSec)
		}
	}
	// The sign structure of the paper's FLOP diffs must reproduce:
	// depth-wise-heavy CNNs predict *below* the padded hardware count,
	// ViT predicts *above* it (SFU instructions unseen by counters).
	if byModel["mobilenetv2-1.0"].FLOPDiff > -0.05 {
		t.Errorf("MobileNetV2 FLOP diff = %+.1f%%, paper has -24%%", byModel["mobilenetv2-1.0"].FLOPDiff*100)
	}
	if byModel["efficientnetv2-s"].FLOPDiff > -0.03 {
		t.Errorf("EfficientNetV2-S FLOP diff = %+.1f%%, paper has -20%%", byModel["efficientnetv2-s"].FLOPDiff*100)
	}
	if d := byModel["resnet-50"].FLOPDiff; d < -0.15 || d > 0.05 {
		t.Errorf("ResNet-50 FLOP diff = %+.1f%%, paper has -2%%", d*100)
	}
	if byModel["vit-t"].FLOPDiff < 0 {
		t.Errorf("ViT-t FLOP diff = %+.1f%%, paper has +9.8%%", byModel["vit-t"].FLOPDiff*100)
	}
	if !strings.Contains(FormatTable4(rows), "resnet-50") {
		t.Error("formatting broken")
	}
}

func TestFigure4A100ShapeHolds(t *testing.T) {
	s, err := Figure4(context.Background(), "a100")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 20 {
		t.Fatalf("A100 should run all 20 models, got %d", len(s.Points))
	}
	byName := map[string]float64{} // key -> attained FLOP/s
	memBound := 0
	for _, p := range s.Points {
		name := p.Name[strings.Index(p.Name, " ")+1:]
		byName[name] = p.FLOPS
		if p.Bound == "memory" {
			memBound++
		}
		if p.FLOPS > s.Model.PeakFLOPS*1.05 {
			t.Errorf("%s attains %.2e above ceiling", p.Name, p.FLOPS)
		}
	}
	// §4.3: many models sit in the memory-bound lower-left; only a
	// few exceed half the peak.
	if memBound < 10 {
		t.Errorf("only %d models memory-bound on A100, expected most", memBound)
	}
	// "Only a small number of models have achieved FLOP/s rates
	// exceeding half of the peak FLOP/s" (§4.3) — peak meaning the
	// theoretical 312 TFLOP/s.
	overHalfPeak := 0
	for _, f := range byName {
		if f > s.Model.TheoreticalFLOPS/2 {
			overHalfPeak++
		}
	}
	if overHalfPeak > 8 || overHalfPeak == 0 {
		t.Errorf("%d models exceed half the theoretical peak, paper says a small number", overHalfPeak)
	}
	// ResNet-50's efficiency beats the depth-wise-heavy models.
	if byName["resnet-50"] <= byName["mobilenetv2-1.0"] {
		t.Error("ResNet-50 should attain higher FLOP/s than MobileNetV2")
	}
	if byName["efficientnetv2-t"] <= byName["efficientnet-b4"] {
		t.Error("EfficientNetV2-T should attain higher FLOP/s than EfficientNet B4 (§4.4)")
	}
}

func TestFigure4EdgeAndNPUSkips(t *testing.T) {
	s, err := Figure4(context.Background(), "rpi4b")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if strings.Contains(p.Name, "vit") || strings.Contains(p.Name, "swin") || strings.Contains(p.Name, "sd-unet") {
			t.Errorf("edge platform should skip %s", p.Name)
		}
	}
	if len(s.Skipped) == 0 {
		t.Error("edge platform should record skips")
	}
	npu, err := Figure4(context.Background(), "npu3720")
	if err != nil {
		t.Fatal(err)
	}
	if len(npu.Points) >= 20 || len(npu.Points) == 0 {
		t.Errorf("NPU should run only a small portion of models, got %d", len(npu.Points))
	}
}

func TestFigure4PlatformOrdering(t *testing.T) {
	a100, err := Figure4(context.Background(), "a100")
	if err != nil {
		t.Fatal(err)
	}
	rpi, err := Figure4(context.Background(), "rpi4b")
	if err != nil {
		t.Fatal(err)
	}
	find := func(s *Figure4Series, key string) float64 {
		for _, p := range s.Points {
			if strings.HasSuffix(p.Name, key) {
				return p.FLOPS
			}
		}
		return 0
	}
	// Four orders of magnitude between a data-center GPU and a
	// Raspberry Pi.
	ra, rr := find(a100, "resnet-50"), find(rpi, "resnet-50")
	if ra < 100*rr {
		t.Errorf("A100 (%.2e) should dwarf RPi (%.2e) on ResNet-50", ra, rr)
	}
}

// TestFigure4AllTracesEveryPoint asserts that a tracer in the caller's
// ctx sees every point Figure4AllCtx profiles: one session span per
// point and one pipeline span per session miss.
func TestFigure4AllTracesEveryPoint(t *testing.T) {
	ResetSession()
	before := SessionStats().Misses
	tr := obs.NewTracer("figure4")
	series, err := Figure4AllCtx(obs.WithTracer(context.Background(), tr))
	if err != nil {
		t.Fatal(err)
	}
	misses := int(SessionStats().Misses - before)
	points := 0
	for _, s := range series {
		points += len(s.Points)
	}
	trace := tr.Snapshot()
	if trace.Dropped != 0 {
		t.Fatalf("tracer dropped %d spans", trace.Dropped)
	}
	spans := map[string]int{}
	for _, sp := range trace.Spans {
		spans[sp.Name]++
	}
	if spans["session"] != points {
		t.Errorf("%d session spans for %d profiled points", spans["session"], points)
	}
	if misses == 0 || spans["pipeline"] != misses {
		t.Errorf("%d pipeline spans for %d session misses", spans["pipeline"], misses)
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	reports, err := Figure5(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("Figure 5 has %d reports", len(reports))
	}
	// ViT uses prediction mode (the paper's DLProf-crash fallback).
	if reports["vit-t"].Mode != "predicted" {
		t.Error("ViT should use the analytical model")
	}
	if reports["resnet-50"].Mode != "measured" {
		t.Error("ResNet-50 should use measured mode")
	}
	// §4.4: EfficientNet B4's low efficiency stems from depth-wise
	// convolution; V2-T (fused MBConv stages) attains higher FLOP/s.
	b4 := reports["efficientnet-b4"].EndToEnd.FLOPS
	v2t := reports["efficientnetv2-t"].EndToEnd.FLOPS
	if v2t <= b4 {
		t.Errorf("V2-T (%.2e) should beat B4 (%.2e)", v2t, b4)
	}
	// ViT's MatMul layers carry most of the FLOP.
	var matmulShare float64
	for _, l := range reports["vit-t"].Layers {
		if l.Category == "matmul" {
			matmulShare += l.Point.Share
		}
	}
	if matmulShare < 0.4 {
		t.Errorf("ViT matmul latency share = %.2f, should dominate", matmulShare)
	}
	if !strings.Contains(FormatFigure5(reports), "vit-t") {
		t.Error("formatting broken")
	}
}

func TestTable5ShapeHolds(t *testing.T) {
	rows, err := Table5(context.Background(), []int{1, 128, 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table 5 has %d rows", len(rows))
	}
	speedups := map[int]float64{}
	for _, r := range rows {
		if r.Model == "shufflenetv2-1.0-mod" {
			speedups[r.Batch] = r.Speedup
		}
	}
	// Paper: 1.39x / 1.49x / 1.64x — the modification must win at
	// every batch, by a factor in the 1.2-2.2 band.
	for batch, s := range speedups {
		if s < 1.2 || s > 2.2 {
			t.Errorf("batch %d speedup = %.2fx, paper band is ~1.4-1.6x", batch, s)
		}
	}
	// Speedup grows with batch (as data movement dominates more).
	if !(speedups[2048] > speedups[1]) {
		t.Errorf("speedup should grow with batch: %v", speedups)
	}
	if !strings.Contains(FormatTable5(rows), "Speedup") {
		t.Error("formatting broken")
	}
}

func TestFigure6ShapeHolds(t *testing.T) {
	f, err := Figure6(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	origDM := DataMovementShare(f.Original)
	modDM := DataMovementShare(f.Modified)
	// §4.5: transpose and data-copy layers take the most time in the
	// original; significantly less in the modified model.
	if origDM < 0.35 {
		t.Errorf("original data-movement share = %.2f, should dominate", origDM)
	}
	if modDM >= origDM/1.5 {
		t.Errorf("modified data-movement share = %.2f, should collapse from %.2f", modDM, origDM)
	}
	// Conv layers contribute the majority of FLOP but only ~40% of
	// latency in the original.
	if cs := ConvShare(f.Original); cs > 0.6 {
		t.Errorf("original conv share = %.2f, paper says ~40%%", cs)
	}
	if !strings.Contains(FormatFigure6(f), "speedup") {
		t.Error("formatting broken")
	}
}

func TestTable6ShapeHolds(t *testing.T) {
	rows, err := Table6Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table 6 has %d rows", len(rows))
	}
	for i, r := range rows {
		ref := Table6Paper[i]
		if rel := r.FLOPS / 1e12 / ref[0]; rel < 0.85 || rel > 1.15 {
			t.Errorf("row %d: TFLOP/s %.2f vs paper %.2f", i+1, r.FLOPS/1e12, ref[0])
		}
		if rel := r.PowerW / ref[2]; rel < 0.85 || rel > 1.15 {
			t.Errorf("row %d: power %.1f vs paper %.1f", i+1, r.PowerW, ref[2])
		}
	}
	if !strings.Contains(FormatTable6(rows), "Table 6") {
		t.Error("formatting broken")
	}
}

func TestTable7ShapeHolds(t *testing.T) {
	rows, tune, err := Table7(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Table 7 has %d rows, want 10", len(rows))
	}
	var ours, maxn Table7Row
	for _, r := range rows {
		switch r.Profile {
		case "optimal (ours)":
			ours = r
		case `stock "MAXN"`:
			maxn = r
		}
	}
	if ours.PowerW > 15.0 {
		t.Errorf("tuned profile draws %.1f W, budget is 15", ours.PowerW)
	}
	if maxn.PowerW <= 15.0 {
		t.Error("MAXN should exceed the 15 W budget")
	}
	if maxn.Latency >= ours.Latency {
		t.Error("MAXN (unlimited power) must be faster than the budget-tuned profile")
	}
	// Ours must beat every other profile that fits the budget.
	for _, r := range rows {
		if r.Profile == "optimal (ours)" {
			continue
		}
		if r.PowerW <= 15.0 && r.Latency < ours.Latency {
			t.Errorf("profile %q (%.1fW, %v) beats ours (%.1fW, %v)",
				r.Profile, r.PowerW, r.Latency, ours.PowerW, ours.Latency)
		}
	}
	if tune.ChosenEMCMHz != 2133 {
		t.Errorf("chosen EMC = %d, paper picks 2133", tune.ChosenEMCMHz)
	}
	if !strings.Contains(FormatTable7(rows), "optimal (ours)") {
		t.Error("formatting broken")
	}
}

func TestFigure8ShapeHolds(t *testing.T) {
	f, err := Figure8(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.BWLines) != 2 {
		t.Fatalf("Figure 8 needs the 2133 and 665 MHz lines, got %d", len(f.BWLines))
	}
	// §4.6: conv layers take about 70% of the latency.
	cs := ConvShare(f.Report)
	if cs < 0.45 || cs > 0.9 {
		t.Errorf("conv latency share = %.2f, paper says ~0.7", cs)
	}
	// The 2133 line clips little; the 665 line clips most.
	var a2133, a665 float64
	for _, a := range f.EMCAnalyses {
		switch a.EMCMHz {
		case 2133:
			a2133 = a.AffectedShare
		case 665:
			a665 = a.AffectedShare
		}
	}
	if a2133 > 0.45 {
		t.Errorf("EMC 2133 affected share = %.2f, should be small", a2133)
	}
	if a665 < 0.5 {
		t.Errorf("EMC 665 affected share = %.2f, should be large", a665)
	}
	if !strings.Contains(FormatFigure8(f), "Figure 8") {
		t.Error("formatting broken")
	}
}

// TestTable7AndFigure8ServedBySession: every Table 7 and Figure 8 point
// goes through the shared session. A second run of both executes no
// pipeline: the session serves each of its points, with results
// byte-identical to the first run's, and Figure 8's report is
// byte-identical to the plain pipeline's.
func TestTable7AndFigure8ServedBySession(t *testing.T) {
	ctx := context.Background()
	ResetSession()
	run := func() (raw []byte, points int) {
		t.Helper()
		rows, tune, err := Table7(ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		fig, err := Figure8(ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		if raw, err = json.Marshal([]any{rows, tune, fig}); err != nil {
			t.Fatal(err)
		}
		// Every row (the last is the tuning's optimum), the tuning's
		// memory-clock analysis and probes, and Figure 8.
		return raw, len(rows) + 1 + len(tune.Evaluations) + 1
	}
	first, _ := run()
	before := SessionStats()
	second, points := run()
	after := SessionStats()
	if n := after.Misses - before.Misses; n != 0 {
		t.Errorf("the second run executed %d pipelines, want 0", n)
	}
	if n := after.Hits - before.Hits; n != int64(points) {
		t.Errorf("the session served %d of the second run's %d points", n, points)
	}
	if !bytes.Equal(first, second) {
		t.Error("the session-served run differs from the first")
	}
	fig, err := Figure8(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.ProfileCtx(ctx, core.Options{Model: "efficientnetv2-t", Platform: "orin-nx", Batch: 8, DType: graph.Float16})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(fig.Report)
	want, _ := json.Marshal(plain)
	if !bytes.Equal(got, want) {
		t.Error("Figure 8's session-served report differs from the plain pipeline's")
	}
}

func TestPerLayerTable4(t *testing.T) {
	rows, err := PerLayerTable4Ctx(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Layers == 0 {
			t.Errorf("%s: no layers measured", r.Model)
		}
		// Per-layer memory predictions stay within the cache-noise
		// envelope at the median (counters deviate by -5%..+8%).
		if r.MemoryErrP50 > 0.10 {
			t.Errorf("%s: median per-layer memory error %.1f%%", r.Model, r.MemoryErrP50*100)
		}
		if r.MemoryErrP90 > 0.25 {
			t.Errorf("%s: p90 per-layer memory error %.1f%%", r.Model, r.MemoryErrP90*100)
		}
	}
	if !strings.Contains(FormatPerLayerTable4(rows), "per-backend-layer") {
		t.Error("formatting broken")
	}
}
