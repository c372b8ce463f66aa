package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/graph"
	"proof/internal/hardware"
)

// runtimePlatforms are one platform per simulated runtime: a100 runs
// trtsim, xeon-6330 ortsim and npu3720 ovsim.
var runtimePlatforms = []string{"a100", "xeon-6330", "npu3720"}

// convChain builds x → conv1 → relu → sigmoid → conv2 → y, naming the
// nodes and the tensors between them as given (relu's output is
// tensors[0], sigmoid's tensors[1]).
func convChain(nodes [4]string, tensors [2]string) *graph.Graph {
	g := graph.New("names")
	f32 := graph.Float32
	g.AddTensor(&graph.Tensor{Name: "x", DType: f32, Shape: graph.Shape{1, 3, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w1", DType: f32, Shape: graph.Shape{4, 3, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "w2", DType: f32, Shape: graph.Shape{4, 4, 3, 3}, Param: true})
	for _, name := range []string{"c1", tensors[0], tensors[1], "y"} {
		g.AddTensor(&graph.Tensor{Name: name, DType: f32})
	}
	conv := graph.MakeAttrs(graph.IntsAttr("kernel_shape", 3, 3), graph.IntsAttr("pads", 1, 1, 1, 1))
	g.AddNode(&graph.Node{Name: nodes[0], OpType: "Conv", Inputs: []string{"x", "w1"}, Outputs: []string{"c1"}, Attrs: conv})
	g.AddNode(&graph.Node{Name: nodes[1], OpType: "Relu", Inputs: []string{"c1"}, Outputs: []string{tensors[0]}})
	g.AddNode(&graph.Node{Name: nodes[2], OpType: "Sigmoid", Inputs: []string{tensors[0]}, Outputs: []string{tensors[1]}})
	g.AddNode(&graph.Node{Name: nodes[3], OpType: "Conv", Inputs: []string{tensors[1], "w2"}, Outputs: []string{"y"}, Attrs: conv.Clone()})
	g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
	return g
}

// TestReformatAliasesNeverTakeTensorNames: a runtime names the tensor a
// reformat layer converts into after the original ("x_r" on ortsim,
// "x_rf" on trtsim, "x_cvt" on ovsim). A model tensor that already
// holds that name must keep it, and no two aliases may share a name:
// before, ortsim's alias of input x hid relu's output "x_r", and
// mapping failed with "layer fused_conv_0 maps to no nodes", a 500 that
// counted against the platform's circuit.
func TestReformatAliasesNeverTakeTensorNames(t *testing.T) {
	ctx := context.Background()
	a100, err := hardware.Get("a100")
	if err != nil {
		t.Fatal(err)
	}
	for _, taken := range []string{"x_r", "x_rf", "x_cvt", "y_rf", "s_r"} {
		g := convChain([4]string{"conv1", "relu", "sigmoid", "conv2"}, [2]string{taken, "s"})
		for _, plat := range runtimePlatforms {
			r, err := ProfileCtx(ctx, Options{Graph: g, Platform: plat, IgnoreSupport: true})
			if err != nil {
				t.Fatalf("%s with a tensor named %q: %v", plat, taken, err)
			}
			checkLayerOwnership(t, plat, g, r)
		}
		rep, err := analysis.NewRep(g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range backend.List() {
			be, err := backend.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := be.Build(ctx, rep, backend.Config{Platform: a100})
			if err != nil {
				t.Fatal(err)
			}
			var aliases []string
			for _, l := range eng.Layers() {
				if !l.IsReformat {
					continue
				}
				alias := l.OutputTensors[0]
				if rep.Graph.Tensor(alias) != nil || slices.Contains(aliases, alias) {
					t.Errorf("%s with a tensor named %q: reformat %q names its output %q, which is taken", name, taken, l.Name, alias)
				}
				aliases = append(aliases, alias)
			}
		}
	}
}

// sigmoidConv builds x → sigmoid → conv → y, with the sigmoid named as
// given: no runtime fuses a pointwise node into the conv after it, so
// the sigmoid is a layer of its own, named after the node.
func sigmoidConv(sigmoid string) *graph.Graph {
	g := graph.New("sigmoid-conv")
	f32 := graph.Float32
	g.AddTensor(&graph.Tensor{Name: "x", DType: f32, Shape: graph.Shape{1, 3, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: f32, Shape: graph.Shape{4, 3, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "s", DType: f32})
	g.AddTensor(&graph.Tensor{Name: "y", DType: f32})
	g.AddNode(&graph.Node{Name: sigmoid, OpType: "Sigmoid", Inputs: []string{"x"}, Outputs: []string{"s"}})
	g.AddNode(&graph.Node{Name: "conv", OpType: "Conv", Inputs: []string{"s", "w"}, Outputs: []string{"y"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("kernel_shape", 3, 3), graph.IntsAttr("pads", 1, 1, 1, 1))})
	g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
	return g
}

// TestLayerNamesNeedNotBeUnique: a model node may carry the name a
// runtime gives one of its reformat layers ("Reformat_input_0" on
// trtsim, "reorder_1" on ortsim, "Convert_0" on ovsim). Before layer
// mapping went by position, the node's layer and the reformat layer
// shared one mapping entry: on npu3720 the reformat layer Convert_0
// reported original_nodes [Convert_0 relu], and on a100 the reformat
// layer Reformat_input_0 reported [Reformat_input_0].
func TestLayerNamesNeedNotBeUnique(t *testing.T) {
	var graphs []*graph.Graph
	for _, nodes := range [][4]string{
		{"Convert_0", "relu", "Reformat_input_0", "conv2"},
		{"conv1", "relu", "reorder_1", "conv2"},
		{"Reformat_output_0", "Convert_0", "Reformat_input_0", "reorder_2"},
	} {
		graphs = append(graphs, convChain(nodes, [2]string{"r", "s"}))
	}
	for _, name := range []string{"Reformat_input_0", "reorder_1", "Convert_0"} {
		graphs = append(graphs, sigmoidConv(name))
	}
	for _, plat := range runtimePlatforms {
		for _, g := range graphs {
			r, err := ProfileCtx(context.Background(), Options{Graph: g, Platform: plat, IgnoreSupport: true})
			if err != nil {
				t.Fatalf("%s with nodes %v: %v", plat, nodeNames(g), err)
			}
			checkLayerOwnership(t, plat, g, r)
		}
	}
}

// TestIdentityLayerIsElementwise: every runtime folds an Identity
// away, so a layer holding one takes the class of its other nodes.
// x → relu → Identity → add(·, x) reports its add layer as elementwise,
// with an elementwise kernel, as it does without the Identity; before,
// the classifier called the Identity a memory copy and a copy outranks
// an elementwise node, so the layer was reported and lowered as a copy.
func TestIdentityLayerIsElementwise(t *testing.T) {
	g := graph.New("identity")
	f32 := graph.Float32
	g.AddTensor(&graph.Tensor{Name: "x", DType: f32, Shape: graph.Shape{1, 64, 56, 56}})
	for _, name := range []string{"r", "i", "y"} {
		g.AddTensor(&graph.Tensor{Name: name, DType: f32})
	}
	g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"r"}})
	g.AddNode(&graph.Node{Name: "id", OpType: "Identity", Inputs: []string{"r"}, Outputs: []string{"i"}})
	g.AddNode(&graph.Node{Name: "add", OpType: "Add", Inputs: []string{"i", "x"}, Outputs: []string{"y"}})
	g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
	for _, plat := range runtimePlatforms {
		r, err := ProfileCtx(context.Background(), Options{Graph: g, Platform: plat, Batch: 1, IgnoreSupport: true})
		if err != nil {
			t.Fatalf("%s: %v", plat, err)
		}
		checkLayerOwnership(t, plat, g, r)
		for _, l := range r.Layers {
			if !slices.Contains(l.OriginalNodes, "add") {
				continue
			}
			if l.Category != "elementwise" {
				t.Errorf("%s: layer %q of %v has category %q, want elementwise", plat, l.Name, l.OriginalNodes, l.Category)
			}
			for _, k := range l.Kernels {
				if !strings.Contains(k.Name, "_elementwise_kernel_") {
					t.Errorf("%s: layer %q lowers to kernel %q, want an elementwise kernel", plat, l.Name, k.Name)
				}
			}
		}
	}
}

// checkLayerOwnership asserts that every reformat layer of r has no
// original nodes and that every non-Constant node of g sits in exactly
// one layer.
func checkLayerOwnership(t *testing.T, plat string, g *graph.Graph, r *Report) {
	t.Helper()
	owners := map[string]int{}
	for _, l := range r.Layers {
		if l.IsReformat && len(l.OriginalNodes) > 0 {
			t.Errorf("%s: reformat layer %q reports original nodes %v", plat, l.Name, l.OriginalNodes)
		}
		for _, n := range l.OriginalNodes {
			owners[n]++
		}
	}
	for _, n := range g.Nodes {
		if n.OpType != "Constant" && owners[n.Name] != 1 {
			t.Errorf("%s: node %q sits in %d layers, want 1", plat, n.Name, owners[n.Name])
		}
	}
}

func nodeNames(g *graph.Graph) []string {
	names := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		names[i] = n.Name
	}
	return names
}
