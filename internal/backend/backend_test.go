package backend_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	_ "proof/internal/backend/ortsim"
	_ "proof/internal/backend/ovsim"
	_ "proof/internal/backend/trtsim"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
	"proof/internal/sim"
)

func buildRep(t *testing.T, model string, batch int, dt graph.DataType) *analysis.Rep {
	t.Helper()
	g, err := models.Build(model)
	if err != nil {
		t.Fatalf("build %s: %v", model, err)
	}
	g.ConvertFloatTensors(dt)
	rep, err := analysis.NewRepWithBatch(g, batch)
	if err != nil {
		t.Fatalf("analyze %s: %v", model, err)
	}
	return rep
}

func nodeNameSet(l *analysis.Layer) []string {
	if l == nil {
		return nil
	}
	var names []string
	for _, n := range l.OriginalNodes() {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMappingReconstructsGroundTruth is the core layer-mapping
// correctness check of the reproduction: for every backend x model, the
// mapping built from the backend's *public* layer info must reconstruct
// exactly the runtime's internal fusion, and conserve total FLOP.
func TestMappingReconstructsGroundTruth(t *testing.T) {
	plat, _ := hardware.Get("a100")
	modelsUnderTest := []string{
		"resnet-50", "mobilenetv2-1.0", "shufflenetv2-1.0",
		"shufflenetv2-1.0-mod", "efficientnetv2-t", "vit-t", "distilbert",
	}
	for _, bk := range backend.List() {
		be, err := backend.Get(bk)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range modelsUnderTest {
			t.Run(bk+"/"+model, func(t *testing.T) {
				rep := buildRep(t, model, 2, graph.Float16)
				cfg := backend.Config{Platform: plat, DType: graph.Float16, Batch: 2}
				eng, err := be.Build(context.Background(), rep, cfg)
				if err != nil {
					t.Fatalf("engine build: %v", err)
				}
				opt := analysis.NewOptimizedRep(rep)
				mapping, err := be.MapLayers(context.Background(), eng, opt)
				if err != nil {
					t.Fatalf("mapping: %v", err)
				}

				var totalFLOP int64
				mappedNodes := 0
				for i, layer := range mapping {
					name := eng.Layers()[i].Name
					truth := eng.GroundTruth(i)
					if (layer == nil) != (truth == nil) {
						t.Fatalf("layer %q: mapped nil=%v, truth nil=%v", name, layer == nil, truth == nil)
					}
					if layer == nil {
						continue // reformat layer
					}
					got, want := nodeNameSet(layer), nodeNameSet(truth)
					if !equalNames(got, want) {
						t.Errorf("layer %q: mapped nodes %v != ground truth %v", name, got, want)
					}
					c, err := opt.LayerCost(layer)
					if err != nil {
						t.Fatalf("layer %q cost: %v", name, err)
					}
					totalFLOP += c.FLOP
					mappedNodes += len(layer.OriginalNodes())
				}
				if want := rep.TotalCost().FLOP; totalFLOP != want {
					t.Errorf("mapped FLOP sum %d != model total %d", totalFLOP, want)
				}
				if mappedNodes != rep.NodeCount() {
					t.Errorf("mapped %d nodes, model has %d", mappedNodes, rep.NodeCount())
				}
				if len(mapping) != len(eng.Layers()) {
					t.Errorf("mapping covers %d of %d layers", len(mapping), len(eng.Layers()))
				}
			})
		}
	}
}

// totalLatency is the end-to-end latency of one simulated inference.
func totalLatency(ts []sim.Timing) time.Duration {
	var total time.Duration
	for _, t := range ts {
		total += t.Latency
	}
	return total
}

func TestEngineProfileDeterminismAndJitter(t *testing.T) {
	plat, _ := hardware.Get("a100")
	rep := buildRep(t, "resnet-50", 8, graph.Float16)
	be, _ := backend.Get("trtsim")
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t1 := eng.Timings(1)
	total1 := totalLatency(t1)
	if total1 != totalLatency(eng.Timings(1)) {
		t.Error("same seed must be deterministic")
	}
	total2 := totalLatency(eng.Timings(2))
	if total1 == total2 {
		t.Error("different seeds should produce run-to-run jitter")
	}
	rel := float64(total1-total2) / float64(total1)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.05 {
		t.Errorf("run-to-run jitter %.2f%% too large", rel*100)
	}
	if total1 <= 0 {
		t.Error("total latency must be positive")
	}
	for i, l := range eng.Layers() {
		if t1[i].Latency <= 0 {
			t.Errorf("layer %q latency not positive", l.Name)
		}
	}
}

func TestTRTMyelinRegions(t *testing.T) {
	plat, _ := hardware.Get("a100")
	rep := buildRep(t, "vit-t", 2, graph.Float16)
	be, _ := backend.Get("trtsim")
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	opaque := 0
	for _, l := range eng.Layers() {
		if l.Opaque {
			opaque++
			if len(l.FusedNodeNames) != 0 {
				t.Error("opaque region must not reveal node names")
			}
			if len(l.InputTensors) == 0 || len(l.OutputTensors) == 0 {
				t.Error("opaque region should expose boundary tensors")
			}
			if len(l.Kernels) < 2 {
				t.Error("myelin region should lower to multiple kernels")
			}
		}
	}
	// ViT-12 blocks: roughly an attention and an MLP region each.
	if opaque < 12 {
		t.Errorf("ViT should produce many Myelin regions, got %d", opaque)
	}

	// A pure CNN must produce none.
	repCNN := buildRep(t, "resnet-50", 2, graph.Float16)
	engCNN, err := be.Build(context.Background(), repCNN, backend.Config{Platform: plat, DType: graph.Float16, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range engCNN.Layers() {
		if l.Opaque {
			t.Errorf("ResNet-50 should have no Myelin regions, got %q", l.Name)
		}
	}
}

func TestTRTFusesConvBlocks(t *testing.T) {
	plat, _ := hardware.Get("a100")
	rep := buildRep(t, "resnet-50", 2, graph.Float16)
	be, _ := backend.Get("trtsim")
	eng, _ := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 2})
	// ResNet-50 has 122 nodes; aggressive fusion should reduce the
	// layer count well below node count: conv+relu and
	// conv+add+relu chains collapse.
	layers := eng.Layers()
	nonReformat := 0
	for _, l := range layers {
		if !l.IsReformat {
			nonReformat++
		}
	}
	if nonReformat >= 100 || nonReformat < 40 {
		t.Errorf("trtsim ResNet-50 backend layers = %d, expected fused count in [40, 100)", nonReformat)
	}
}

func TestORTReorderLayers(t *testing.T) {
	plat, _ := hardware.Get("xeon-6330")
	rep := buildRep(t, "shufflenetv2-1.0", 2, graph.Float32)
	be, _ := backend.Get("ortsim")
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float32, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	reorders := 0
	for _, l := range eng.Layers() {
		if l.IsReformat {
			reorders++
			if len(l.InputTensors) != 1 || len(l.OutputTensors) != 1 {
				t.Error("reorder must expose exactly one input and output")
			}
			if l.OutputTensors[0] == l.InputTensors[0] {
				t.Error("reorder output must be an alias name")
			}
		}
	}
	if reorders == 0 {
		t.Error("ortsim should insert reorder layers for ShuffleNetV2")
	}
}

func TestOVExposesOriginalNames(t *testing.T) {
	plat, _ := hardware.Get("npu3720")
	rep := buildRep(t, "mobilenetv2-1.0", 2, graph.Float16)
	be, _ := backend.Get("ovsim")
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range eng.Layers() {
		if l.IsReformat {
			continue
		}
		if len(l.FusedNodeNames) == 0 {
			t.Errorf("ovsim layer %q must expose original node names", l.Name)
		}
	}
}

func TestBackendRegistry(t *testing.T) {
	keys := backend.List()
	if len(keys) != 3 {
		t.Fatalf("backends = %v", keys)
	}
	for _, k := range []string{"ortsim", "ovsim", "trtsim"} {
		if _, err := backend.Get(k); err != nil {
			t.Errorf("Get(%s): %v", k, err)
		}
	}
	if _, err := backend.Get("tvm"); err == nil {
		t.Error("unknown backend must error")
	}
}

func TestKernelLoweringCorrelation(t *testing.T) {
	plat, _ := hardware.Get("a100")
	rep := buildRep(t, "resnet-50", 2, graph.Float16)
	be, _ := backend.Get("trtsim")
	eng, _ := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 2})
	for _, l := range eng.Layers() {
		if len(l.Kernels) == 0 {
			t.Errorf("layer %q has no kernels", l.Name)
			continue
		}
		var share float64
		for _, k := range l.Kernels {
			if k.LayerName != l.Name {
				t.Errorf("kernel %q correlates to %q, not %q", k.Name, k.LayerName, l.Name)
			}
			if k.Name == "" {
				t.Error("kernel must have a name")
			}
			share += k.ShareOfLayer
		}
		if share < 0.99 || share > 1.01 {
			t.Errorf("layer %q kernel shares sum to %.2f", l.Name, share)
		}
	}
}

// TestMappingAllZooModels extends the ground-truth reconstruction check
// to the entire model zoo on every backend — the strongest correctness
// statement about layer mapping: FLOP is conserved and every node is
// claimed exactly once, for all 20 models x 3 runtimes.
func TestMappingAllZooModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full zoo sweep")
	}
	plat, _ := hardware.Get("a100")
	for _, info := range models.List() {
		for _, bk := range backend.List() {
			info, bk := info, bk
			t.Run(info.Key+"/"+bk, func(t *testing.T) {
				rep := buildRep(t, info.Key, 1, graph.Float16)
				be, _ := backend.Get(bk)
				eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 1})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				opt := analysis.NewOptimizedRep(rep)
				mapping, err := be.MapLayers(context.Background(), eng, opt)
				if err != nil {
					t.Fatalf("mapping: %v", err)
				}
				var flop int64
				nodes := 0
				for _, layer := range mapping {
					if layer == nil {
						continue
					}
					c, err := opt.LayerCost(layer)
					if err != nil {
						t.Fatal(err)
					}
					flop += c.FLOP
					nodes += len(layer.OriginalNodes())
				}
				if flop != rep.TotalCost().FLOP {
					t.Errorf("FLOP not conserved: %d != %d", flop, rep.TotalCost().FLOP)
				}
				if nodes != rep.NodeCount() {
					t.Errorf("node coverage: %d of %d", nodes, rep.NodeCount())
				}
			})
		}
	}
}

func TestDTypeAffectsLatency(t *testing.T) {
	plat, _ := hardware.Get("a100")
	be, _ := backend.Get("trtsim")

	rep16 := buildRep(t, "resnet-50", 32, graph.Float16)
	e16, _ := be.Build(context.Background(), rep16, backend.Config{Platform: plat, DType: graph.Float16, Batch: 32})
	lat16 := totalLatency(e16.Timings(0))

	rep32 := buildRep(t, "resnet-50", 32, graph.Float32)
	e32, _ := be.Build(context.Background(), rep32, backend.Config{Platform: plat, DType: graph.Float32, Batch: 32})
	lat32 := totalLatency(e32.Timings(0))

	if lat16 >= lat32 {
		t.Errorf("fp16 (%v) should be faster than fp32 (%v) on A100", lat16, lat32)
	}
}

// TestLayerTimingZeroAlloc holds the per-layer timing the pipeline
// tail calls once per layer to its //lint:hotpath contract: simulating
// a layer must not allocate, neither in LayerTiming itself nor anywhere
// inside sim.SimulateLayer, and it must agree with the whole-engine
// Timings.
func TestLayerTimingZeroAlloc(t *testing.T) {
	plat, _ := hardware.Get("a100")
	rep := buildRep(t, "resnet-18", 4, graph.Float16)
	be, _ := backend.Get("trtsim")
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: graph.Float16, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	all := eng.Timings(1)
	if len(all) == 0 {
		t.Fatal("no layers simulated")
	}
	var tm sim.Timing
	for i := range all {
		n := testing.AllocsPerRun(10, func() { tm = eng.LayerTiming(i, 1) })
		if n != 0 {
			t.Fatalf("LayerTiming(%d) allocates %v per run, want 0", i, n)
		}
		if tm != all[i] {
			t.Fatalf("layer %d: LayerTiming %+v != Timings %+v", i, tm, all[i])
		}
	}
}

// TestBoundaryIOSharesUnaliasedLists: a single-node layer's boundary
// list no alias applies to is the model node's own list, capped, so an
// append copies it; a list an alias rewrites is a copy, and the node's
// list keeps its names; a fused layer's lists are capped runs of one
// array, listing its operator's boundary with the aliases applied.
func TestBoundaryIOSharesUnaliasedLists(t *testing.T) {
	rep := buildRep(t, "resnet-18", 1, graph.Float32)
	plat, err := hardware.Get("a100")
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.Get("trtsim")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := be.Build(context.Background(), rep, backend.Config{Platform: plat, DType: plat.DefaultDType, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := analysis.NewOptimizedRep(rep)
	var shared, copied, fused int
	for i, l := range eng.Layers() {
		truth := eng.GroundTruth(i)
		if truth == nil {
			continue
		}
		if cap(l.InputTensors) != len(l.InputTensors) || cap(l.OutputTensors) != len(l.OutputTensors) {
			t.Fatalf("layer %q: lists are not capped: cap %d/%d, len %d/%d", l.Name,
				cap(l.InputTensors), cap(l.OutputTensors), len(l.InputTensors), len(l.OutputTensors))
		}
		if f := truth.Fused; f != nil {
			var op analysis.FusedOp
			if err := opt.SetFusedOp(&op, f.Name, f.Nodes); err != nil {
				t.Fatal(err)
			}
			want := opt.AppendBoundary(nil, &op)
			got := append(append([]string(nil), l.InputTensors...), l.OutputTensors...)
			for j, name := range got {
				if rep.Graph.Tensor(name) == nil && j < len(want) && name == want[j]+"_rf" {
					got[j] = want[j]
					copied++
				}
			}
			if len(l.InputTensors) != op.NumInputs || !equalNames(got, want) {
				t.Fatalf("fused layer %q lists %v -> %v, want the boundary %v", l.Name, l.InputTensors, l.OutputTensors, want)
			}
			fused++
			continue
		}
		n := truth.Node
		if &l.InputTensors[0] == &n.Inputs[0] && &l.OutputTensors[0] == &n.Outputs[0] {
			shared++
			continue
		}
		if !equalNames(l.InputTensors[1:], n.Inputs[1:]) || l.InputTensors[0] != n.Inputs[0]+"_rf" {
			t.Fatalf("aliased inputs %v over the node's %v", l.InputTensors, n.Inputs)
		}
		copied++
	}
	if shared == 0 || copied == 0 || fused == 0 {
		t.Fatalf("%d shared, %d aliased and %d fused lists; want some of each", shared, copied, fused)
	}
}
