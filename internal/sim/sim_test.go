package sim

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/hardware"
)

func a100Cfg(t *testing.T) Config {
	t.Helper()
	plat, err := hardware.Get("a100")
	if err != nil {
		t.Fatal(err)
	}
	return Config{Platform: plat, DType: graph.Float16}
}

func TestSimulateComputeBoundLayer(t *testing.T) {
	cfg := a100Cfg(t)
	// 1 TFLOP of GEMM with tiny traffic: compute-bound, finishes in
	// roughly 1e12 / (312e12 * 0.85) seconds.
	w := Work{Name: "big_gemm", Class: ClassGEMM, HWFLOP: 1e12, ModelFLOP: 1e12, Bytes: 1e6}
	tm := SimulateLayer(w, cfg)
	if tm.Bound != "compute" {
		t.Errorf("bound = %s", tm.Bound)
	}
	want := 1e12 / (312e12 * 0.85)
	got := tm.ComputeTime.Seconds()
	if got < want*0.95 || got > want*1.3 {
		t.Errorf("compute time = %v, want ~%v s", got, want)
	}
	if tm.Latency <= tm.ComputeTime {
		t.Error("latency must include overhead")
	}
}

func TestSimulateMemoryBoundLayer(t *testing.T) {
	cfg := a100Cfg(t)
	// 1 GB of copy with no FLOP: memory-bound.
	w := Work{Name: "copy", Class: ClassMemCopy, Bytes: 1e9}
	tm := SimulateLayer(w, cfg)
	if tm.Bound != "memory" {
		t.Errorf("bound = %s", tm.Bound)
	}
	want := 1e9 / (1555e9 * 0.87)
	got := tm.MemoryTime.Seconds()
	if got < want*0.90 || got > want*1.15 {
		t.Errorf("memory time = %v s, want ~%v s", got, want)
	}
}

func TestTinyLayerIsOverheadBound(t *testing.T) {
	cfg := a100Cfg(t)
	w := Work{Name: "tiny", Class: ClassElementwise, HWFLOP: 100, Bytes: 100}
	tm := SimulateLayer(w, cfg)
	if tm.Bound != "overhead" {
		t.Errorf("bound = %s", tm.Bound)
	}
	if tm.Latency < cfg.Platform.KernelOverhead {
		t.Error("latency must be at least the launch overhead")
	}
}

func TestDWConvCannotUseTensorCores(t *testing.T) {
	cfg := a100Cfg(t)
	flop := int64(5e10)
	gemm := SimulateLayer(Work{Name: "g", Class: ClassGEMM, HWFLOP: flop, Bytes: 1e6}, cfg)
	dw := SimulateLayer(Work{Name: "d", Class: ClassDWConv, HWFLOP: flop, Bytes: 1e6}, cfg)
	// Depth-wise runs on the vector pipeline: at least ~5x slower for
	// the same FLOP on a tensor-core platform.
	if dw.ComputeTime < 4*gemm.ComputeTime {
		t.Errorf("dwconv %v should be much slower than gemm %v", dw.ComputeTime, gemm.ComputeTime)
	}
}

func TestClockScalingAffectsLatency(t *testing.T) {
	plat, _ := hardware.Get("orin-nx")
	w := Work{Name: "g", Class: ClassGEMM, HWFLOP: 1e11, Bytes: 1e6}
	full := SimulateLayer(w, Config{Platform: plat, DType: graph.Float16, Clocks: hardware.Clocks{GPUMHz: 918, EMCMHz: 3199}})
	half := SimulateLayer(w, Config{Platform: plat, DType: graph.Float16, Clocks: hardware.Clocks{GPUMHz: 510, EMCMHz: 3199}})
	if half.ComputeTime <= full.ComputeTime {
		t.Error("lower GPU clock must increase compute time")
	}
	memw := Work{Name: "m", Class: ClassMemCopy, Bytes: 1e9}
	fullM := SimulateLayer(memw, Config{Platform: plat, DType: graph.Float16, Clocks: hardware.Clocks{GPUMHz: 918, EMCMHz: 3199}})
	lowEMC := SimulateLayer(memw, Config{Platform: plat, DType: graph.Float16, Clocks: hardware.Clocks{GPUMHz: 918, EMCMHz: 665}})
	if lowEMC.MemoryTime <= fullM.MemoryTime {
		t.Error("lower EMC clock must increase memory time")
	}
	// GPU issue limit: lowering GPU clock with EMC at max also slows
	// copies (Table 6 #3).
	lowGPU := SimulateLayer(memw, Config{Platform: plat, DType: graph.Float16, Clocks: hardware.Clocks{GPUMHz: 510, EMCMHz: 3199}})
	if lowGPU.MemoryTime <= fullM.MemoryTime {
		t.Error("GPU issue limit must slow copies at low GPU clock")
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	for _, name := range []string{"a", "b", "layer_42"} {
		v1 := nameJitter(name, 3, 0.015)
		v2 := nameJitter(name, 3, 0.015)
		if v1 != v2 {
			t.Error("jitter must be deterministic for same inputs")
		}
		if v1 < -0.015 || v1 > 0.015 {
			t.Errorf("jitter out of bounds: %v", v1)
		}
		if nameJitter(name, 4, 0.015) == v1 && name == "a" {
			// Not guaranteed different per seed for every name, but
			// identical across all names would indicate a bug; check
			// via accumulation below.
			continue
		}
	}
	diff := 0
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if nameJitter(name, 1, 0.01) != nameJitter(name, 2, 0.01) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed must influence jitter")
	}
}

// TestJitterFoldsEverySeedByte: jitter hashes the name and the seed's
// little-endian bytes with FNV-1a, four bytes below 2^32 (the jitter
// every such seed always had) and all eight from 2^32 on.
func TestJitterFoldsEverySeedByte(t *testing.T) {
	ref := func(name string, seed uint64) float64 {
		b := binary.LittleEndian.AppendUint64(nil, seed)
		if seed>>32 == 0 {
			b = b[:4]
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write(b)
		return float64(h.Sum64()%1_000_000)/500_000 - 1
	}
	for _, name := range []string{"a", "b", "layer_42"} {
		for _, seed := range []uint64{0, 7, 1<<32 - 1, 1 << 32, 7 + 1<<32, 1<<48 - 1} {
			if got, want := nameJitter(name, seed, 1), ref(name, seed); got != want {
				t.Errorf("jitter of %q at seed %d = %v, want %v", name, seed, got, want)
			}
		}
	}
}

func TestUtilization(t *testing.T) {
	ts := []Timing{
		{Latency: 10 * time.Millisecond, ComputeTime: 8 * time.Millisecond, MemoryTime: 2 * time.Millisecond},
		{Latency: 10 * time.Millisecond, ComputeTime: 2 * time.Millisecond, MemoryTime: 9 * time.Millisecond},
	}
	var u Utilization
	for _, tm := range ts {
		u.Add(tm.Latency, tm.ComputeTime, tm.MemoryTime)
	}
	uc, um := u.Fractions()
	if uc < 0.49 || uc > 0.51 {
		t.Errorf("compute util = %v", uc)
	}
	if um < 0.54 || um > 0.56 {
		t.Errorf("memory util = %v", um)
	}
	// Memory time above the latency caps at 1.
	u.Add(time.Millisecond, 0, 40*time.Millisecond)
	if _, um := u.Fractions(); um != 1 {
		t.Errorf("memory util = %v, want capped at 1", um)
	}
	var empty Utilization
	uc, um = empty.Fractions()
	if uc != 0 || um != 0 {
		t.Error("empty utilization should be zero")
	}
	if n := testing.AllocsPerRun(100, func() {
		var u Utilization
		u.Add(10*time.Millisecond, 8*time.Millisecond, 2*time.Millisecond)
		uc, um = u.Fractions()
	}); n != 0 {
		t.Errorf("utilization allocates %v per op, want 0", n)
	}
}

func TestMeasuredBytesDeviation(t *testing.T) {
	cfg := a100Cfg(t)
	w := Work{Name: "x", Class: ClassConv, HWFLOP: 1e9, Bytes: 1e8}
	tm := SimulateLayer(w, cfg)
	ratio := float64(tm.ActualBytes) / float64(w.Bytes)
	if ratio < 0.94 || ratio > 1.09 {
		t.Errorf("measured/predicted bytes = %v, want within [-5%%, +8%%]", ratio)
	}
	// Stable across seeds (cache behavior, not run-to-run noise).
	tm2 := SimulateLayer(w, Config{Platform: cfg.Platform, DType: cfg.DType, Seed: 99})
	if tm2.ActualBytes != tm.ActualBytes {
		t.Error("measured bytes must be seed-independent")
	}
}

func TestClassifyNodeAndKernelNames(t *testing.T) {
	g := graph.New("t")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{1, 8, 4, 4}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float16, Shape: graph.Shape{8, 1, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float16})
	dw := &graph.Node{Name: "dw", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntAttr("group", 8), graph.IntsAttr("kernel_shape", 3, 3))}
	g.AddNode(dw)
	if !IsDepthwise(dw, g) {
		t.Error("dw conv not detected")
	}
	if ClassifyNode(dw, g) != ClassDWConv {
		t.Error("dw conv class")
	}
	mm := &graph.Node{Name: "mm", OpType: "MatMul"}
	if ClassifyNode(mm, g) != ClassGEMM {
		t.Error("matmul class")
	}
	if ClassifyNodes([]*graph.Node{mm, dw}, g) != ClassGEMM {
		t.Error("gemm should dominate")
	}
	name := kernelName("ampere", ClassGEMM, graph.Float16, "layer one")
	if !strings.HasPrefix(name, "sm80_xmma_gemm_fp16_") || strings.Contains(name, " ") {
		t.Errorf("kernel name = %q", name)
	}
}

func TestClassStringAndKernelNames(t *testing.T) {
	for _, c := range []Class{ClassElementwise, ClassGEMM, ClassConv, ClassDWConv,
		ClassNorm, ClassSoftmax, ClassReduction, ClassDataMovement,
		ClassEmbedding, ClassMemCopy, ClassMeta} {
		if c.String() == "unknown" || c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
		name := kernelName("volta", c, graph.Float16, "x")
		if !strings.HasPrefix(name, "sm72_") {
			t.Errorf("kernel name = %q", name)
		}
	}
	if Class(99).String() != "unknown" {
		t.Error("unknown class name")
	}
	if !strings.HasPrefix(kernelName("x86-avx512", ClassConv, graph.Float32, "c"), "generic_") {
		t.Error("non-GPU arch should use generic prefix")
	}
}

func TestClassifyNodeAllBranches(t *testing.T) {
	g := graph.New("cls")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{2, 4}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{2, 4}})
	cases := map[string]Class{
		"Gemm":               ClassGEMM,
		"Einsum":             ClassGEMM,
		"Softmax":            ClassSoftmax,
		"LayerNormalization": ClassNorm,
		"MaxPool":            ClassReduction,
		"ArgMax":             ClassReduction,
		"Gather":             ClassEmbedding,
		"Transpose":          ClassDataMovement,
		"Cast":               ClassMemCopy,
		"QuantizeLinear":     ClassMemCopy,
		"Relu":               ClassElementwise,
		"Constant":           ClassMeta,
		"Reshape":            ClassMeta,
		"Identity":           ClassMeta,
	}
	for op, want := range cases {
		n := &graph.Node{Name: "n", OpType: op, Inputs: []string{"x"}, Outputs: []string{"y"}}
		if got := ClassifyNode(n, g); got != want {
			t.Errorf("ClassifyNode(%s) = %v, want %v", op, got, want)
		}
	}
	// Shape-math Gather (small Int64 output) is meta, not embedding.
	g.AddTensor(&graph.Tensor{Name: "i64", DType: graph.Int64, Shape: graph.Shape{2}})
	n := &graph.Node{Name: "sg", OpType: "Gather", Inputs: []string{"x"}, Outputs: []string{"i64"}}
	if ClassifyNode(n, g) != ClassMeta {
		t.Error("shape-math gather should be meta")
	}
}

// hardwareFLOP is HardwareFLOP of n at its analytical cost.
func hardwareFLOP(t *testing.T, n *graph.Node, g *graph.Graph, plat *hardware.Platform) int64 {
	t.Helper()
	c, err := analysis.NodeCost(n, g)
	if err != nil {
		t.Fatal(err)
	}
	return HardwareFLOP(n, c, g, plat)
}

func TestHardwareFLOPForNodesSums(t *testing.T) {
	plat, _ := hardware.Get("a100")
	g := graph.New("sum")
	g.AddTensor(&graph.Tensor{Name: "a", DType: graph.Float16, Shape: graph.Shape{64, 64}})
	g.AddTensor(&graph.Tensor{Name: "b", DType: graph.Float16, Shape: graph.Shape{64, 64}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "c", DType: graph.Float16})
	g.AddTensor(&graph.Tensor{Name: "d", DType: graph.Float16})
	n1 := &graph.Node{Name: "mm", OpType: "MatMul", Inputs: []string{"a", "b"}, Outputs: []string{"c"}}
	n2 := &graph.Node{Name: "r", OpType: "Relu", Inputs: []string{"c"}, Outputs: []string{"d"}}
	g.AddNode(n1)
	g.AddNode(n2)
	g.Inputs = []string{"a"}
	g.Outputs = []string{"d"}
	rep, err := analysis.NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	sum := HardwareFLOPForNodes(rep, []*graph.Node{n1, n2}, plat)
	if sum != hardwareFLOP(t, n1, g, plat)+hardwareFLOP(t, n2, g, plat) {
		t.Error("HardwareFLOPForNodes must sum per-node values")
	}
	if sum <= 0 {
		t.Error("positive FLOP expected")
	}
}

func TestHardwareFLOPPadding(t *testing.T) {
	plat, _ := hardware.Get("a100")
	g := graph.New("p")
	// Conv with 3 input channels: K pads 3*49=147 -> 152 on the MMA
	// granule, inflating hardware FLOP.
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{1, 3, 224, 224}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float16, Shape: graph.Shape{64, 3, 7, 7}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float16})
	n := &graph.Node{Name: "c", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("strides", 2, 2), graph.IntsAttr("pads", 3, 3, 3, 3), graph.IntsAttr("kernel_shape", 7, 7))}
	g.AddNode(n)
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	hw := hardwareFLOP(t, n, g, plat)
	model := int64(2) * 112 * 112 * 64 * 3 * 7 * 7
	if hw <= model {
		t.Errorf("padded hardware FLOP %d should exceed model FLOP %d", hw, model)
	}
	if float64(hw)/float64(model) > 1.25 {
		t.Errorf("padding factor %.2f too large", float64(hw)/float64(model))
	}
}

func TestHardwareFLOPTranscendentalDeflation(t *testing.T) {
	plat, _ := hardware.Get("a100")
	g := graph.New("e")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{1, 1024}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float16})
	n := &graph.Node{Name: "erf", OpType: "Erf", Inputs: []string{"x"}, Outputs: []string{"y"}}
	g.AddNode(n)
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	hw := hardwareFLOP(t, n, g, plat)
	// Analytical weight is 10 FLOP/element; counters see at most ~2.
	if hw > 2*1024 {
		t.Errorf("erf hardware FLOP = %d, counters should see <= 2/element", hw)
	}
}
