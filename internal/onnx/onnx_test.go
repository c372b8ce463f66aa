package onnx

import (
	"bytes"
	"path/filepath"
	"testing"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/models"
)

// TestRoundTripZooModels is the strongest codec check: export every zoo
// model to ONNX bytes, parse them back, and verify the analysis totals
// (node count, params, FLOP, memory) are identical.
func TestRoundTripZooModels(t *testing.T) {
	keys := []string{"resnet-50", "mobilenetv2-1.0", "shufflenetv2-1.0", "vit-t", "distilbert", "efficientnet-b0"}
	for _, key := range keys {
		key := key
		t.Run(key, func(t *testing.T) {
			g, err := models.Build(key)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Export(g)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			back, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			r1, err := analysis.NewRep(g)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := analysis.NewRep(back)
			if err != nil {
				t.Fatalf("analyze round-tripped: %v", err)
			}
			if r1.NodeCount() != r2.NodeCount() {
				t.Errorf("nodes %d != %d", r1.NodeCount(), r2.NodeCount())
			}
			if g.ParamCount() != back.ParamCount() {
				t.Errorf("params %d != %d", g.ParamCount(), back.ParamCount())
			}
			if r1.TotalCost() != r2.TotalCost() {
				t.Errorf("cost %v != %v", r1.TotalCost(), r2.TotalCost())
			}
		})
	}
}

// TestExportDeterministic: exporting a zoo model gives the same bytes
// every time, so an export can be compared, hashed or cached, and the
// fuzz targets seeded from one start from the same corpus each run.
func TestExportDeterministic(t *testing.T) {
	for _, info := range models.List() {
		g, err := models.Build(info.Key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Export(g)
		if err != nil {
			t.Fatalf("%s: export: %v", info.Key, err)
		}
		for i := 0; i < 10; i++ {
			got, err := Export(g)
			if err != nil {
				t.Fatalf("%s: export: %v", info.Key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: export %d differs from the first", info.Key, i+2)
			}
		}
	}
}

func TestRoundTripRebatch(t *testing.T) {
	g, err := models.Build("shufflenetv2-1.0")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Export(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The dynamic shuffle chains must survive the codec: rebatching
	// the imported model works.
	rep, err := analysis.NewRepWithBatch(back, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchSize() != 4 {
		t.Error("rebatch failed")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g, err := models.Build("mobilenetv2-0.5")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.onnx")
	if err := SaveFile(g, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name {
		t.Errorf("name = %q", back.Name)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.onnx")); err == nil {
		t.Error("missing file must error")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseModel([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Error("garbage should not parse")
	}
	if _, err := ParseModel(nil); err == nil {
		t.Error("empty model has no graph")
	}
	if _, err := Load(bytes.NewReader([]byte("not onnx"))); err == nil {
		t.Error("text should not load")
	}
}

func TestVarintEdgeCases(t *testing.T) {
	var e encoder
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1}
	for _, v := range vals {
		e.varint(v)
	}
	d := &decoder{buf: e.buf}
	for _, want := range vals {
		got, err := d.readVarint()
		if err != nil || got != want {
			t.Fatalf("varint %d -> %d, %v", want, got, err)
		}
	}
	// Truncated varint errors.
	d2 := &decoder{buf: []byte{0x80}}
	if _, err := d2.readVarint(); err == nil {
		t.Error("truncated varint must error")
	}
}

func TestSymbolicBatchDimension(t *testing.T) {
	// Build a tiny model where the input batch is symbolic (dim value
	// missing): the importer substitutes 1.
	var model encoder
	model.writeVarintField(1, 8)
	var gp encoder
	gp.writeStringField(2, "sym")

	// Input value info: name "x", float, dims [sym, 4].
	var vi encoder
	vi.writeStringField(1, "x")
	var typ, tt, shape encoder
	tt.writeVarintField(1, TensorFloat)
	var d1 encoder
	d1.writeStringField(2, "batch") // dim_param only
	shape.writeMessageField(1, &d1)
	var d2 encoder
	d2.writeVarintField(1, 4)
	shape.writeMessageField(1, &d2)
	tt.writeMessageField(2, &shape)
	typ.writeMessageField(1, &tt)
	vi.writeMessageField(2, &typ)
	gp.writeMessageField(11, &vi)

	// One Relu node x -> y.
	var node encoder
	node.writeStringField(1, "x")
	node.writeStringField(2, "y")
	node.writeStringField(3, "relu")
	node.writeStringField(4, "Relu")
	gp.writeMessageField(1, &node)

	// Output value info: y.
	var out encoder
	out.writeStringField(1, "y")
	gp.writeMessageField(12, &out)

	model.writeMessageField(7, &gp)
	g, err := Load(bytes.NewReader(model.buf))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Tensor("x").Shape.Equal(graph.Shape{1, 4}) {
		t.Errorf("symbolic batch shape = %v", g.Tensor("x").Shape)
	}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
}

func TestConstantNodeConversion(t *testing.T) {
	g, err := models.Build("vit-t")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Export(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Constant nodes with int payloads must survive with their
	// values (shape inference through Reshape targets).
	if err := back.InferShapes(); err != nil {
		t.Fatalf("constants lost values: %v", err)
	}
	constants := 0
	for _, n := range back.Nodes {
		if n.OpType == "Constant" {
			constants++
		}
	}
	if constants == 0 {
		t.Error("ViT export should retain Constant nodes")
	}
}
