package modelfmt

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"proof/internal/analysis"
	"proof/internal/graph"
	"proof/internal/models"
)

func TestRoundTrip(t *testing.T) {
	g, err := models.Build("resnet-50")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(g.Nodes) || len(back.Tensors) != len(g.Tensors) {
		t.Fatalf("round trip lost structure: %d/%d nodes, %d/%d tensors",
			len(back.Nodes), len(g.Nodes), len(back.Tensors), len(g.Tensors))
	}
	// Analysis must produce identical totals on the loaded copy.
	r1, err := analysis.NewRep(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := analysis.NewRep(back)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCost() != r2.TotalCost() {
		t.Errorf("cost changed after round trip: %v vs %v", r1.TotalCost(), r2.TotalCost())
	}
}

func TestRoundTripShuffleNetIntData(t *testing.T) {
	// ShuffleNet exercises Constant-node value propagation, which
	// relies on attribute round-tripping.
	g, err := models.Build("shufflenetv2-1.0")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.InferShapes(); err != nil {
		t.Fatalf("shape inference on loaded graph: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g, err := models.Build("mobilenetv2-0.5")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
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
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage must be rejected")
	}
	if _, err := Load(strings.NewReader(`{"format_version": 99, "graph": null}`)); err == nil {
		t.Error("wrong version must be rejected")
	}
	if _, err := Load(strings.NewReader(`{"format_version": 1}`)); err == nil {
		t.Error("missing graph must be rejected")
	}
	// Structurally invalid graph.
	bad := `{"format_version":1,"graph":{"name":"x","nodes":[{"name":"n","op_type":"Relu","inputs":["ghost"],"outputs":["y"]}],"tensors":{"y":{"name":"y","dtype":1}},"inputs":[],"outputs":[]}}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("invalid graph must be rejected")
	}
	// A graph with nothing to profile: proof -model-file refuses it.
	for _, empty := range []string{`{"format_version":1,"graph":{}}`, `{"format_version":1,"graph":{"name":"e","nodes":[]}}`} {
		_, err := Load(strings.NewReader(empty))
		if ve, ok := graph.AsValidationError(err); !ok || ve.Code != graph.ErrEmptyGraph {
			t.Errorf("Load(%s) = %v, want an %s defect", empty, err, graph.ErrEmptyGraph)
		}
	}
}

// TestLoadRefusesWhatProofdRefuses: a model file is read as proofd reads
// an inline graph, so a document with an unknown field, a repeated field
// or data after its end is refused here too. Each variant of the seed
// graph's file loaded before, as encoding/json skips unknown fields,
// keeps the last of a repeated one and stops after the first value.
func TestLoadRefusesWhatProofdRefuses(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(fuzzSeedGraph(), &buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if _, err := Load(strings.NewReader(doc)); err != nil {
		t.Fatalf("the seed file must load: %v", err)
	}
	const graphStart = `"graph": {`
	if !strings.Contains(doc, graphStart) {
		t.Fatalf("no %s in %s", graphStart, doc)
	}
	for name, bad := range map[string]string{
		"unknown field":  strings.Replace(doc, graphStart, graphStart+`"nodez": [],`, 1),
		"repeated field": strings.Replace(doc, graphStart, graphStart+`"nodes": [],`, 1),
		"trailing data":  doc + "}",
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: Load accepted %s", name, bad)
		}
	}
}

// TestFileFieldsMirrorTags: Load reads the envelope Save writes.
func TestFileFieldsMirrorTags(t *testing.T) {
	typ := reflect.TypeOf(file{})
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
	}
	if !reflect.DeepEqual(tags, []string(fileFields)) {
		t.Errorf("Load reads %v, tags are %v", fileFields, tags)
	}
}
