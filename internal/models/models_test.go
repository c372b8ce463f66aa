package models

import (
	"math"
	"strings"
	"testing"

	"proof/internal/analysis"
	"proof/internal/graph"
)

// relErr returns |got-want|/want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, info := range List() {
		info := info
		t.Run(info.Key, func(t *testing.T) {
			g, err := info.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if errs := g.ValidateAll(); len(errs) > 0 {
				t.Fatalf("validate: %v", errs)
			}
			rep, err := analysis.NewRep(g)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			// The verifier must stay clean on fully inferred graphs
			// too (shape-contradiction checks see every shape here).
			if errs := g.ValidateAll(); len(errs) > 0 {
				t.Fatalf("validate after inference: %v", errs)
			}
			if rep.TotalCost().FLOP <= 0 {
				t.Error("model has no FLOP")
			}
		})
	}
}

func TestTable3ParamsAndGFLOP(t *testing.T) {
	// Params within 12% and GFLOP within 10% of the paper's Table 3.
	// (Divergence comes from BN folding details and the paper's
	// unspecified input resolutions for a few models.)
	for _, info := range List() {
		if info.ID == 0 {
			continue
		}
		info := info
		t.Run(info.Key, func(t *testing.T) {
			g, err := info.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := analysis.NewRep(g)
			if err != nil {
				t.Fatal(err)
			}
			paramsM := float64(g.ParamCount()) / 1e6
			if e := relErr(paramsM, info.PaperParamsM); e > 0.12 {
				t.Errorf("params = %.2fM, paper %.1fM (err %.1f%%)", paramsM, info.PaperParamsM, e*100)
			}
			gflop := float64(rep.TotalCost().FLOP) / 1e9
			if e := relErr(gflop, info.PaperGFLOP); e > 0.10 {
				t.Errorf("GFLOP = %.3f, paper %.3f (err %.1f%%)", gflop, info.PaperGFLOP, e*100)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := Lookup("resnet-50"); !ok {
		t.Error("resnet-50 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus key found")
	}
	if _, err := Build("nope"); err == nil {
		t.Error("Build of unknown model should error")
	}
	list := List()
	if len(list) < 21 {
		t.Errorf("registry has %d models, want >= 21", len(list))
	}
	// Table 3 models come first, in ID order.
	for i := 0; i < 20; i++ {
		if list[i].ID != i+1 {
			t.Errorf("list[%d].ID = %d, want %d", i, list[i].ID, i+1)
		}
	}
}

func TestModelsRebatch(t *testing.T) {
	for _, key := range []string{"resnet-50", "vit-t", "shufflenetv2-1.0", "distilbert"} {
		g, err := Build(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		rep1, err := analysis.NewRep(g)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		f1 := rep1.TotalCost().FLOP
		rep8, err := analysis.NewRepWithBatch(g, 8)
		if err != nil {
			t.Fatalf("%s rebatch: %v", key, err)
		}
		f8 := rep8.TotalCost().FLOP
		ratio := float64(f8) / float64(f1)
		if ratio < 7.9 || ratio > 8.1 {
			t.Errorf("%s: batch-8 FLOP ratio = %.3f, want ~8", key, ratio)
		}
		out := g.Tensor(g.Outputs[0])
		if out.Shape[0] != 8 {
			t.Errorf("%s: output batch = %d, want 8", key, out.Shape[0])
		}
	}
}

func TestModifiedShuffleNetStructure(t *testing.T) {
	orig, err := BuildShuffleNetV2(1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := BuildShuffleNetV2(1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	count := func(g *graph.Graph, op string) int {
		n := 0
		for _, nd := range g.Nodes {
			if nd.OpType == op {
				n++
			}
		}
		return n
	}
	// The modified model removes the shuffle Transposes of the 13
	// non-downsampling blocks; only the 3 downsample-block shuffles
	// remain.
	if got := count(orig, "Transpose"); got != 16 {
		t.Errorf("original Transpose count = %d, want 16", got)
	}
	if got := count(mod, "Transpose"); got != 3 {
		t.Errorf("modified Transpose count = %d, want 3", got)
	}
	// Residual Adds appear only in the modified model.
	if got := count(mod, "Add"); got != 13 {
		t.Errorf("modified Add count = %d, want 13", got)
	}
	if got := count(orig, "Add"); got != 0 {
		t.Errorf("original Add count = %d, want 0", got)
	}

	// FLOP grows by roughly the paper's 1.47x (0.434/0.294).
	ro, _ := analysis.NewRep(orig)
	rm, _ := analysis.NewRep(mod)
	ratio := float64(rm.TotalCost().FLOP) / float64(ro.TotalCost().FLOP)
	if ratio < 1.3 || ratio > 1.65 {
		t.Errorf("modified/original FLOP ratio = %.2f, want ~1.47", ratio)
	}
	// But memory traffic shrinks per FLOP: the modified model's
	// arithmetic intensity must be higher.
	if rm.TotalCost().ArithmeticIntensity() <= ro.TotalCost().ArithmeticIntensity() {
		t.Error("modified model should have higher arithmetic intensity")
	}
}

func TestShuffleNetShuffleChainShapes(t *testing.T) {
	g, err := BuildShuffleNetV2(1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	// Every shuffle Reshape/Transpose chain must preserve element count.
	for _, n := range g.Nodes {
		if n.OpType != "Transpose" {
			continue
		}
		in := g.Tensor(n.Inputs[0])
		out := g.Tensor(n.Outputs[0])
		if in.Shape.NumElements() != out.Shape.NumElements() {
			t.Errorf("transpose %s changes element count", n.Name)
		}
		if in.Shape.Rank() != 5 {
			t.Errorf("shuffle transpose %s rank = %d, want 5", n.Name, in.Shape.Rank())
		}
	}
}

func TestViTStructure(t *testing.T) {
	g, err := BuildViT("b")
	if err != nil {
		t.Fatal(err)
	}
	out := g.Tensor(g.Outputs[0])
	if !out.Shape.Equal(graph.Shape{1, 1000}) {
		t.Errorf("ViT output shape = %v", out.Shape)
	}
	softmax := 0
	for _, n := range g.Nodes {
		if n.OpType == "Softmax" {
			softmax++
		}
	}
	if softmax != 12 {
		t.Errorf("ViT-B softmax count = %d, want 12 (one per block)", softmax)
	}
}

func TestSwinStructure(t *testing.T) {
	g, err := BuildSwin("t")
	if err != nil {
		t.Fatal(err)
	}
	out := g.Tensor(g.Outputs[0])
	if !out.Shape.Equal(graph.Shape{1, 1000}) {
		t.Errorf("Swin output shape = %v", out.Shape)
	}
	// 2+2+6+2 = 12 attention blocks.
	softmax := 0
	for _, n := range g.Nodes {
		if n.OpType == "Softmax" {
			softmax++
		}
	}
	if softmax != 12 {
		t.Errorf("Swin-T softmax count = %d, want 12", softmax)
	}
	// Window tokens: attention operates on 49-token windows.
	for _, n := range g.Nodes {
		if n.OpType == "Softmax" {
			s := g.Tensor(n.Outputs[0]).Shape
			if s[len(s)-1] != 49 {
				t.Errorf("window attention token count = %d, want 49", s[len(s)-1])
			}
		}
	}
}

func TestDistilBERTStructure(t *testing.T) {
	g, err := BuildDistilBERT(128)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Tensor(g.Outputs[0])
	if !out.Shape.Equal(graph.Shape{1, 128, 768}) {
		t.Errorf("DistilBERT output = %v", out.Shape)
	}
	if _, err := BuildDistilBERT(0); err == nil {
		t.Error("seq 0 should be rejected")
	}
}

func TestSDUNetStructure(t *testing.T) {
	g, err := BuildSDUNet(32) // small latent for test speed
	if err != nil {
		t.Fatal(err)
	}
	out := g.Tensor(g.Outputs[0])
	if !out.Shape.Equal(graph.Shape{1, 4, 32, 32}) {
		t.Errorf("UNet output = %v (must match latent input)", out.Shape)
	}
	if _, err := BuildSDUNet(33); err == nil {
		t.Error("non-multiple-of-8 latent should be rejected")
	}
}

func TestPeakTestModel(t *testing.T) {
	g, err := BuildPeakTest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	var haveMatMul, haveCopy bool
	for _, n := range rep.Nodes() {
		c, _ := rep.Cost(n)
		switch n.OpType {
		case "MatMul":
			haveMatMul = true
			if c.ArithmeticIntensity() < 50 {
				t.Errorf("peak MatMul %s AI = %.1f, should be compute-bound", n.Name, c.ArithmeticIntensity())
			}
		case "Cast":
			haveCopy = true
			if c.FLOP != 0 {
				t.Errorf("memcopy %s has FLOP", n.Name)
			}
		}
	}
	if !haveMatMul || !haveCopy {
		t.Error("peak test must contain both MatMul and copy operators")
	}
}

func TestBuilderErrorPaths(t *testing.T) {
	b := NewBuilder("bad")
	x := b.Input("x", graph.Float32, 1, 3, 8, 8)
	// Conv with groups not dividing channels fails at Finish.
	b.Conv(x, 8, 3, 1, 1, 2, true, "c")
	if _, err := b.Finish(); err == nil {
		t.Error("invalid group conv should fail")
	}

	b2 := NewBuilder("noout")
	b2.Input("x", graph.Float32, 1, 3, 8, 8)
	if _, err := b2.Finish(); err == nil {
		t.Error("graph without outputs should fail")
	}
}

func TestBuilderFreshNamesUnique(t *testing.T) {
	b := NewBuilder("names")
	x := b.Input("x", graph.Float32, 1, 4, 8, 8)
	y := b.Relu(x, "")
	z := b.Relu(y, "")
	b.MarkOutput(z)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes[0].Name == g.Nodes[1].Name {
		t.Error("fresh names must be unique")
	}
	if !strings.HasPrefix(g.Nodes[0].Name, "Relu_") {
		t.Errorf("fresh name = %q", g.Nodes[0].Name)
	}
}

func TestMakeDivisible(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{32, 32}, {16, 16}, {8.4, 8}, {12, 16}, {58, 56}, {3, 8},
	}
	for _, c := range cases {
		if got := makeDivisible(c.v, 8); got != c.want {
			t.Errorf("makeDivisible(%v, 8) = %d, want %d", c.v, got, c.want)
		}
	}
}
