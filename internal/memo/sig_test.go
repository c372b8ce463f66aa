package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"proof/internal/graph"
	"proof/internal/hardware"
)

// convGraph builds a small two-node graph (Conv -> Relu) whose names,
// attribute insertion order and tensor names the tests permute.
func convGraph(prefix string) *graph.Graph {
	g := graph.New(prefix + "net")
	g.AddTensor(&graph.Tensor{Name: prefix + "in", DType: graph.Float32, Shape: graph.Shape{1, 3, 224, 224}})
	g.AddTensor(&graph.Tensor{Name: prefix + "w", DType: graph.Float32, Shape: graph.Shape{64, 3, 7, 7}, Param: true})
	g.AddTensor(&graph.Tensor{Name: prefix + "mid", DType: graph.Float32, Shape: graph.Shape{1, 64, 112, 112}})
	g.AddTensor(&graph.Tensor{Name: prefix + "out", DType: graph.Float32, Shape: graph.Shape{1, 64, 112, 112}})
	g.AddNode(&graph.Node{
		Name:    prefix + "conv",
		OpType:  "Conv",
		Inputs:  []string{prefix + "in", prefix + "w"},
		Outputs: []string{prefix + "mid"},
		Attrs: graph.Attrs{
			"strides":      graph.IntsAttr(2, 2),
			"pads":         graph.IntsAttr(3, 3, 3, 3),
			"kernel_shape": graph.IntsAttr(7, 7),
			"group":        graph.IntAttr(1),
		},
	})
	g.AddNode(&graph.Node{
		Name:    prefix + "relu",
		OpType:  "Relu",
		Inputs:  []string{prefix + "mid"},
		Outputs: []string{prefix + "out"},
	})
	return g
}

func contentKeyOf(g *graph.Graph) string {
	return hexSum(ContentKey(g, g.Nodes, "normal"))
}

// hexSum writes a layer key's SHA-256 sum in hex, as keys were written
// when they were strings.
func hexSum(sum [sha256.Size]byte) string {
	return hex.EncodeToString(sum[:])
}

func TestContentKeyDeterministic(t *testing.T) {
	g := convGraph("")
	want := contentKeyOf(g)
	// Go randomizes map iteration order per range; many repetitions catch
	// any leak of attr-map order into the hash.
	for i := 0; i < 200; i++ {
		if got := contentKeyOf(g); got != want {
			t.Fatalf("iteration %d: key changed: %s != %s", i, got, want)
		}
	}
}

func TestContentKeyIgnoresNames(t *testing.T) {
	want := contentKeyOf(convGraph(""))
	if got := contentKeyOf(convGraph("renamed/")); got != want {
		t.Fatalf("renaming nodes and tensors changed the key:\n  %s\n  %s", got, want)
	}
}

func TestContentKeyIgnoresAttrInsertionOrder(t *testing.T) {
	g := convGraph("")
	want := contentKeyOf(g)
	// Rebuild the conv attrs in reverse insertion order.
	conv := g.Node("conv")
	attrs := graph.Attrs{}
	attrs["group"] = graph.IntAttr(1)
	attrs["kernel_shape"] = graph.IntsAttr(7, 7)
	attrs["pads"] = graph.IntsAttr(3, 3, 3, 3)
	attrs["strides"] = graph.IntsAttr(2, 2)
	conv.Attrs = attrs
	if got := contentKeyOf(g); got != want {
		t.Fatalf("attr insertion order changed the key")
	}
}

// TestContentKeySensitivity mutates one semantic field at a time and
// requires each mutation to move the key: a collision here would let
// the memo store serve one layer's profile for a different layer.
func TestContentKeySensitivity(t *testing.T) {
	base := contentKeyOf(convGraph(""))
	mutations := map[string]func(g *graph.Graph){
		"op type":        func(g *graph.Graph) { g.Node("conv").OpType = "ConvTranspose" },
		"attr int":       func(g *graph.Graph) { g.Node("conv").Attrs["group"] = graph.IntAttr(2) },
		"attr ints":      func(g *graph.Graph) { g.Node("conv").Attrs["strides"] = graph.IntsAttr(1, 1) },
		"attr added":     func(g *graph.Graph) { g.Node("conv").Attrs["dilations"] = graph.IntsAttr(1, 1) },
		"attr removed":   func(g *graph.Graph) { delete(g.Node("conv").Attrs, "group") },
		"attr key":       func(g *graph.Graph) { a := g.Node("conv").Attrs; a["strides2"] = a["strides"]; delete(a, "strides") },
		"input shape":    func(g *graph.Graph) { g.Tensor("in").Shape = graph.Shape{1, 3, 112, 112} },
		"input dtype":    func(g *graph.Graph) { g.Tensor("in").DType = graph.Float16 },
		"output shape":   func(g *graph.Graph) { g.Tensor("out").Shape = graph.Shape{1, 64, 56, 56} },
		"param flag":     func(g *graph.Graph) { g.Tensor("w").Param = false },
		"const int data": func(g *graph.Graph) { g.Tensor("w").IntData = []int64{4} },
		"extra input":    func(g *graph.Graph) { n := g.Node("conv"); n.Inputs = append(n.Inputs, "w") },
		"node dropped":   func(g *graph.Graph) { g.Nodes = g.Nodes[:1] },
	}
	for name, mutate := range mutations {
		g := convGraph("")
		mutate(g)
		if got := contentKeyOf(g); got == base {
			t.Errorf("mutation %q did not change the content key", name)
		}
	}
	if got := hexSum(ContentKey(convGraph(""), convGraph("").Nodes, "myelin")); got == base {
		t.Errorf("group kind did not change the content key")
	}
}

// TestContentKeyTensorIdentity: the same tensor referenced twice must
// hash differently from two distinct tensors with identical contents —
// slot indices carry the sharing structure.
func TestContentKeyTensorIdentity(t *testing.T) {
	shared := convGraph("")
	n := shared.Node("relu")
	n.Inputs = []string{"mid", "mid"}

	distinct := convGraph("")
	distinct.AddTensor(&graph.Tensor{Name: "mid2", DType: graph.Float32, Shape: graph.Shape{1, 64, 112, 112}})
	n2 := distinct.Node("relu")
	n2.Inputs = []string{"mid", "mid2"}

	if contentKeyOf(shared) == contentKeyOf(distinct) {
		t.Fatalf("shared vs distinct input tensors collided")
	}
}

// TestContentKeyFraming: adjacent variable-length fields must not be
// re-splittable into a colliding encoding ("ab"+"c" vs "a"+"bc").
func TestContentKeyFraming(t *testing.T) {
	mk := func(op1, op2 string) string {
		g := graph.New("f")
		g.AddTensor(&graph.Tensor{Name: "t", DType: graph.Float32, Shape: graph.Shape{1}})
		g.AddNode(&graph.Node{Name: "n1", OpType: op1, Outputs: []string{"t"}})
		g.AddNode(&graph.Node{Name: "n2", OpType: op2, Inputs: []string{"t"}})
		return contentKeyOf(g)
	}
	if mk("ab", "c") == mk("a", "bc") {
		t.Fatalf("adjacent op-type strings re-split into a collision")
	}
}

func TestContentKeyNilTolerant(t *testing.T) {
	g := convGraph("")
	if hexSum(ContentKey(nil, g.Nodes, "normal")) == contentKeyOf(g) {
		t.Fatalf("nil graph (all tensors unresolvable) collided with resolved graph")
	}
	nodes := append([]*graph.Node{nil}, g.Nodes...)
	_ = ContentKey(g, nodes, "normal") // must not panic
}

func TestReformatKey(t *testing.T) {
	a := &graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{8, 64, 56, 56}}
	b := &graph.Tensor{Name: "renamed", DType: graph.Float16, Shape: graph.Shape{8, 64, 56, 56}}
	if ReformatKey(a) != ReformatKey(b) {
		t.Fatalf("reformat key depends on the tensor name")
	}
	c := &graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{8, 64, 56, 56}}
	if ReformatKey(a) == ReformatKey(c) {
		t.Fatalf("reformat key ignores dtype")
	}
	d := &graph.Tensor{Name: "x", DType: graph.Float16, Shape: graph.Shape{8, 64, 56, 57}}
	if ReformatKey(a) == ReformatKey(d) {
		t.Fatalf("reformat key ignores shape")
	}
}

func baseBinding() Binding {
	return Binding{
		Backend:      "trtsim",
		PlatformKey:  "a100",
		PlatformHash: "abc123",
		DType:        graph.Float16,
		Batch:        8,
		Mode:         "predicted",
		Seed:         1,
	}
}

func TestPlanKeySensitivity(t *testing.T) {
	b := baseBinding()
	base := PlanKey("resnet-50", "zoo:resnet-50", b)
	if PlanKey("resnet-50-renamed", "zoo:resnet-50", b) == base {
		t.Error("model display name does not key the plan")
	}
	if PlanKey("resnet-50", "graph:deadbeef", b) == base {
		t.Error("content source does not key the plan")
	}
	// Every binding field keys the plan: the same model behaves
	// differently per platform, dtype, batch, mode, seed and clock
	// configuration.
	mutations := map[string]func(b *Binding){
		"backend":           func(b *Binding) { b.Backend = "other" },
		"platform key":      func(b *Binding) { b.PlatformKey = "agx" },
		"platform hash":     func(b *Binding) { b.PlatformHash = "def456" },
		"dtype":             func(b *Binding) { b.DType = graph.Int8 },
		"batch":             func(b *Binding) { b.Batch = 32 },
		"mode":              func(b *Binding) { b.Mode = "measured" },
		"seed":              func(b *Binding) { b.Seed = 2 },
		"gpu clock":         func(b *Binding) { b.Clocks.GPUMHz = 900 },
		"emc clock":         func(b *Binding) { b.Clocks.EMCMHz = 1600 },
		"cpu clock":         func(b *Binding) { b.Clocks.CPUMHz = 1200 },
		"cpu clusters":      func(b *Binding) { b.Clocks.CPUClusters = 2 },
		"gpu capacity":      func(b *Binding) { b.Clocks.GPUCapacity = 0.5 },
		"measured roofline": func(b *Binding) { b.MeasuredRoofline = true },
	}
	for name, mutate := range mutations {
		b := baseBinding()
		mutate(&b)
		if PlanKey("resnet-50", "zoo:resnet-50", b) == base {
			t.Errorf("binding field %q does not key the plan", name)
		}
	}
}

func TestPlanKeyUsesDescriptorHash(t *testing.T) {
	p, ok := hardware.Lookup("a100")
	if !ok {
		t.Fatal("platform a100 missing")
	}
	edited := *p
	edited.MemBW *= 2
	b1, b2 := baseBinding(), baseBinding()
	b1.PlatformHash = p.DescriptorHash()
	b2.PlatformHash = edited.DescriptorHash()
	if b1.PlatformHash == b2.PlatformHash {
		t.Fatal("editing MemBW did not change the descriptor hash")
	}
	if PlanKey("resnet-50", "zoo:resnet-50", b1) == PlanKey("resnet-50", "zoo:resnet-50", b2) {
		t.Fatal("edited platform descriptor did not change the plan key")
	}
}

func TestGraphDigestStable(t *testing.T) {
	d1, err := GraphDigest(convGraph(""))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := GraphDigest(convGraph(""))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("graph digest not deterministic")
	}
	g := convGraph("")
	g.Tensor("in").Shape = graph.Shape{2, 3, 224, 224}
	d3, err := GraphDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("graph digest ignores tensor shapes")
	}
}

// knownAnswerGroup is a three-node group (Conv -> LeakyRelu -> Reshape)
// whose attributes cover every attribute kind and whose tensors include
// parameters and constant int data: every field the key encodings
// frame.
func knownAnswerGroup() *graph.Graph {
	g := convGraph("")
	conv := g.Node("conv")
	conv.Attrs["auto_pad"] = graph.StringAttr("NOTSET")
	relu := g.Node("relu")
	relu.OpType = "LeakyRelu"
	relu.Attrs = graph.Attrs{"alpha": graph.FloatAttr(0.01)}
	g.AddTensor(&graph.Tensor{Name: "shape", DType: graph.Int64, Shape: graph.Shape{2}, Param: true, IntData: []int64{1, -1}})
	g.AddTensor(&graph.Tensor{Name: "flat", DType: graph.Float32, Shape: graph.Shape{1, 802816}})
	g.AddNode(&graph.Node{Name: "reshape", OpType: "Reshape", Inputs: []string{"out", "shape"}, Outputs: []string{"flat"}})
	return g
}

// TestKeyEncodingsKnownAnswer pins the exact keys. The goldens see them
// only through the simulator's content-keyed jitter, so an encoding
// change that happened to leave that jitter alone would pass unnoticed.
// The values were computed by feeding each field to a streaming SHA-256;
// hashing one buffer of the same fields must give the same digests.
func TestKeyEncodingsKnownAnswer(t *testing.T) {
	g := knownAnswerGroup()
	b := baseBinding()
	b.Clocks = hardware.Clocks{GPUMHz: 1410, EMCMHz: 1215, CPUMHz: 2000, CPUClusters: 2, GPUCapacity: 0.75}
	ck := hexSum(ContentKey(g, g.Nodes, "normal"))
	for _, c := range []struct{ name, got, want string }{
		{"ContentKey", ck, "a53b07fe5692d067a4dc5e59cbe253559891025cb13b364068bdc4e26362e773"},
		{"ContentKey myelin", hexSum(ContentKey(g, g.Nodes, "myelin")), "0dd7d2426044a7a00608256b0c59a6c1f294276b70740be1885fb52f08bb4641"},
		{"ReformatKey", hexSum(ReformatKey(g.Tensor("shape"))), "70c3a7f00480b891f11bb7be2f99cf7cc18e08290114fe843e3821e34194cbb8"},
		{"PlanKey", PlanKey("resnet-50", "zoo:resnet-50", b), "1ee6165b0de17aad1997610b6dab4a7693b76547e4c63715010427dd8d942928"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestContentKeyAllocsConstant: encoding a group that fits the stack
// arrays allocates nothing, however many fields its nodes carry (one
// per field would put a heap allocation behind every attribute,
// dimension and int), and the key is a sum, not a hex string.
func TestContentKeyAllocsConstant(t *testing.T) {
	const bound = 0
	widen := func(scale int) *graph.Graph {
		g := knownAnswerGroup()
		conv := g.Node("conv")
		for i := 0; i < scale; i++ {
			conv.Attrs[fmt.Sprintf("extra_%d", i)] = graph.IntsAttr(i, i+1, i+2)
		}
		shape := g.Tensor("shape")
		for i := 0; i < 8*scale; i++ {
			shape.IntData = append(shape.IntData, int64(i))
		}
		return g
	}
	for _, scale := range []int{0, 2, 8} {
		g := widen(scale)
		allocs := testing.AllocsPerRun(50, func() { _ = ContentKey(g, g.Nodes, "normal") })
		if allocs > bound {
			t.Errorf("ContentKey with %d extra attrs and %d extra ints: %.0f allocs, want <= %d",
				scale, 8*scale, allocs, bound)
		}
	}
}

// TestContentKeyLargeGroupMatchesMap: a group with more tensor
// references than the stack arrays hold numbers them through a map
// instead of a scan; both must match the map-numbered reference, with
// repeated references at every distance.
func TestContentKeyLargeGroupMatchesMap(t *testing.T) {
	for _, width := range []int{keyStackRefs / 4, 2 * keyStackRefs} {
		g := graph.New("wide")
		g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: graph.Shape{1, width}})
		var ins []string
		for i := 0; i < width; i++ {
			name := fmt.Sprintf("x%d", i)
			g.AddTensor(&graph.Tensor{Name: name, DType: graph.Float32, Shape: graph.Shape{1, 1}})
			ins = append(ins, name, fmt.Sprintf("x%d", i/3))
		}
		g.AddNode(&graph.Node{Name: "cat", OpType: "Concat", Inputs: ins, Outputs: []string{"y"}})
		g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"y"}, Outputs: []string{"x0"}})
		if got, want := ContentKey(g, g.Nodes, "normal"), ContentKeyByMap(g, g.Nodes, "normal"); got != want {
			t.Errorf("%d-wide group: ContentKey %x, map-numbered %x", width, got, want)
		}
	}
}
