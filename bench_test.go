// Benchmarks regenerating every table and figure of the paper (one
// benchmark per experiment), plus ablation benchmarks for the design
// choices DESIGN.md calls out and micro-benchmarks of the pipeline
// stages. Key reproduced quantities are attached as custom metrics so
// `go test -bench` output doubles as an experiment log.
package proof_test

import (
	"bytes"
	"context"
	"testing"

	"proof"
	"proof/internal/analysis"
	"proof/internal/backend"
	_ "proof/internal/backend/ortsim"
	_ "proof/internal/backend/ovsim"
	_ "proof/internal/backend/trtsim"
	"proof/internal/experiments"
	"proof/internal/graph"
	"proof/internal/graphops"
	"proof/internal/hardware"
	"proof/internal/models"
	"proof/internal/ncusim"
	"proof/internal/onnx"
)

// ---- Tables ----

// BenchmarkTable2Platforms enumerates the hardware models of Table 2.
func BenchmarkTable2Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 7 {
			b.Fatal("platform count")
		}
	}
}

// BenchmarkTable3Models rebuilds and re-analyzes all 20 evaluation
// models (node counts, params, theoretical GFLOP).
func BenchmarkTable3Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 20 {
			b.Fatal("model count")
		}
	}
}

// BenchmarkTable4PredictionAccuracy runs the analytical-vs-counters
// comparison (A100, fp16). Reports the ResNet-50 FLOP diff (paper:
// -2.03%) as a metric. Each iteration empties the experiments session
// first, so it times Table 4's ten pipeline runs (five models, two
// modes each), not session hits.
func BenchmarkTable4PredictionAccuracy(b *testing.B) {
	var rows []experiments.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		experiments.ResetSession()
		rows, err = experiments.Table4WithBatchCtx(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == "resnet-50" {
			b.ReportMetric(r.FLOPDiff*100, "resnet50-flop-diff-%")
			b.ReportMetric(r.MemoryDiff*100, "resnet50-mem-diff-%")
		}
	}
}

// BenchmarkTable5ShuffleNetSpeedup runs the §4.5 effectiveness study.
// Reports the batch-2048 speedup (paper: 1.64x).
func BenchmarkTable5ShuffleNetSpeedup(b *testing.B) {
	var rows []experiments.Table5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table5(context.Background(), []int{1, 128, 2048})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == "shufflenetv2-1.0-mod" && r.Batch == 2048 {
			b.ReportMetric(r.Speedup, "speedup-bs2048-x")
		}
	}
}

// BenchmarkTable6PeakVsClocks measures the achieved roofline peak at
// the paper's five Orin NX clock configurations.
func BenchmarkTable6PeakVsClocks(b *testing.B) {
	var rows []struct{}
	_ = rows
	for i := 0; i < b.N; i++ {
		got, err := experiments.Table6Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(got[0].FLOPS/1e12, "max-TFLOPs")
			b.ReportMetric(got[0].BW/1e9, "max-GBps")
			b.ReportMetric(got[0].PowerW, "max-watts")
		}
	}
}

// BenchmarkTable7PowerProfiles evaluates EfficientNetV2-T under all ten
// Table 7 power profiles including the tuned one.
func BenchmarkTable7PowerProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tune, err := experiments.Table7(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("row count")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(tune.ChosenGPUMHz), "chosen-gpu-MHz")
			b.ReportMetric(float64(tune.ChosenEMCMHz), "chosen-emc-MHz")
			b.ReportMetric(tune.Optimal.PowerW, "tuned-watts")
		}
	}
}

// ---- Figures ----

// BenchmarkFigure4EndToEnd runs the end-to-end roofline of every model
// across all seven platforms.
func BenchmarkFigure4EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure4AllCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 7 {
			b.Fatal("platform count")
		}
	}
}

// BenchmarkFigure5LayerWise runs the §4.4 layer-wise analyses
// (ResNet-50, ViT-t, EfficientNet B4, EfficientNetV2-T on A100).
func BenchmarkFigure5LayerWise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := experiments.Figure5(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != 4 {
			b.Fatal("report count")
		}
	}
}

// BenchmarkFigure6ShuffleNet runs the §4.5 layer-wise before/after
// analysis. Reports the original model's data-movement latency share.
func BenchmarkFigure6ShuffleNet(b *testing.B) {
	var f *experiments.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.Figure6(context.Background(), 256)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(experiments.DataMovementShare(f.Original)*100, "orig-datamove-%")
	b.ReportMetric(experiments.DataMovementShare(f.Modified)*100, "mod-datamove-%")
}

// BenchmarkFigure8OrinLayerWise runs the §4.6 layer-wise analysis with
// the lowered-EMC bandwidth lines.
func BenchmarkFigure8OrinLayerWise(b *testing.B) {
	var f *experiments.Figure8Result
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.Figure8(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range f.EMCAnalyses {
		if a.EMCMHz == 2133 {
			b.ReportMetric(a.AffectedShare*100, "emc2133-affected-%")
		}
	}
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblationFusionMemory compares the fusion-aware memory
// prediction (§3.2.3: intermediate tensors stay on-chip) against naive
// per-operator summation, measured as error vs the simulated counters.
func BenchmarkAblationFusionMemory(b *testing.B) {
	plat, _ := hardware.Get("a100")
	be, _ := backend.Get("trtsim")
	var fusedErr, naiveErr float64
	for i := 0; i < b.N; i++ {
		g, err := models.Build("resnet-50")
		if err != nil {
			b.Fatal(err)
		}
		g.ConvertFloatTensors(graph.Float16)
		rep, err := analysis.NewRepWithBatch(g, 16)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 16})
		if err != nil {
			b.Fatal(err)
		}
		opt := analysis.NewOptimizedRep(rep)
		mapping, err := be.MapLayers(context.Background(), eng, opt)
		if err != nil {
			b.Fatal(err)
		}
		var fused, naive int64
		for _, layer := range mapping {
			if layer == nil {
				continue
			}
			c, err := opt.LayerCost(layer)
			if err != nil {
				b.Fatal(err)
			}
			fused += c.MemoryBytes()
			if layer.Fused != nil {
				nc, err := opt.NaiveFusedCost(layer.Fused)
				if err != nil {
					b.Fatal(err)
				}
				naive += nc.MemoryBytes()
			} else {
				naive += c.MemoryBytes()
			}
		}
		meas, err := ncusim.Measure(eng, 1)
		if err != nil {
			b.Fatal(err)
		}
		fusedErr = float64(fused)/float64(meas.Bytes) - 1
		naiveErr = float64(naive)/float64(meas.Bytes) - 1
	}
	b.ReportMetric(fusedErr*100, "fused-mem-err-%")
	b.ReportMetric(naiveErr*100, "naive-mem-err-%")
}

// BenchmarkAblationConvStride compares the stride-aware convolution
// input-read rule (§3.2.1) against naive full-input reads on a
// stride-2 1x1 convolution (where only a quarter of the input is
// touched).
func BenchmarkAblationConvStride(b *testing.B) {
	g := graph.New("stride-ablation")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{8, 64, 56, 56}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float16, Shape: graph.Shape{128, 64, 1, 1}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float16})
	g.AddNode(&graph.Node{Name: "c", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: graph.Attrs{"strides": graph.IntsAttr(2, 2), "kernel_shape": graph.IntsAttr(1, 1)}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rep, err := analysis.NewRep(g)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := rep.Cost(rep.Graph.Node("c"))
		inputBytes := g.Tensor("x").Bytes()
		paramBytes := g.Tensor("w").Bytes()
		withRule := c.ReadBytes - paramBytes
		ratio = float64(withRule) / float64(inputBytes)
	}
	b.ReportMetric(ratio, "touched-input-fraction")
}

// BenchmarkAblationMappingStrategies compares the three runtimes'
// layer-mapping strategies (name parsing, original-name lists,
// io-tensor subgraph search) on the same model.
func BenchmarkAblationMappingStrategies(b *testing.B) {
	plat, _ := hardware.Get("a100")
	for _, key := range backend.List() {
		key := key
		b.Run(key, func(b *testing.B) {
			be, _ := backend.Get(key)
			for i := 0; i < b.N; i++ {
				g2, err := models.Build("shufflenetv2-1.0")
				if err != nil {
					b.Fatal(err)
				}
				g2.ConvertFloatTensors(graph.Float16)
				rep2, err := analysis.NewRepWithBatch(g2, 4)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := be.Build(context.Background(), rep2, backend.Config{Platform: plat, DType: graph.Float16, Batch: 4})
				if err != nil {
					b.Fatal(err)
				}
				opt := analysis.NewOptimizedRep(rep2)
				if _, err := be.MapLayers(context.Background(), eng, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProfilingOverhead contrasts PRoof's prediction mode
// (seconds of analysis) with counter profiling (minutes of kernel
// replay) — the paper's headline overhead claim.
func BenchmarkAblationProfilingOverhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		r, err := proof.ProfileCtx(context.Background(), proof.Options{
			Model: "resnet-50", Platform: "a100", Batch: 16, Mode: proof.ModeMeasured,
		})
		if err != nil {
			b.Fatal(err)
		}
		overhead = r.ProfilingOverhead.Seconds()
	}
	b.ReportMetric(overhead, "simulated-ncu-overhead-s")
}

// ---- Pipeline micro-benchmarks ----

// BenchmarkShapeInference measures full-graph shape inference on
// ResNet-50.
func BenchmarkShapeInference(b *testing.B) {
	g, err := models.Build("resnet-50")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.InferShapes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBuildSwin measures constructing the largest
// classification model in the zoo.
func BenchmarkModelBuildSwin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := models.Build("swin-b"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeRepresentation measures cost analysis of ViT-B.
func BenchmarkAnalyzeRepresentation(b *testing.B) {
	g, err := models.Build("vit-b")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.NewRep(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures a complete Profile call (build,
// optimize, profile, map, roofline).
func BenchmarkFullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := proof.ProfileCtx(context.Background(), proof.Options{Model: "resnet-50", Platform: "a100", Batch: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkONNXRoundTrip measures exporting + re-importing ResNet-50
// through the pure-Go ONNX codec.
func BenchmarkONNXRoundTrip(b *testing.B) {
	g, err := models.Build("resnet-50")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := onnx.Export(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := onnx.Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphOptimize measures the cleanup pass pipeline on the
// shape-chain-heavy ShuffleNetV2.
func BenchmarkGraphOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := models.Build("shufflenetv2-1.0")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := graphops.Optimize(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisor measures report analysis plus the advisor rules.
func BenchmarkAdvisor(b *testing.B) {
	r, err := proof.ProfileCtx(context.Background(), proof.Options{Model: "shufflenetv2-1.0", Platform: "a100", Batch: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var findings []proof.Finding
	for i := 0; i < b.N; i++ {
		findings = proof.Advise(r)
	}
	b.ReportMetric(float64(len(findings)), "findings")
}

// BenchmarkDistributedScaling measures the data-parallel scaling sweep
// (the §5 future-work exploration).
func BenchmarkDistributedScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := proof.DistributedScalingCurve(context.Background(), proof.DistributedOptions{
			Model: "resnet-50", Platform: "a100", GlobalBatch: 128,
		}, []int{1, 2, 4, 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(points[len(points)-1].Efficiency, "eff-at-8-devices")
		}
	}
}
