package modelfmt

import (
	"bytes"
	"encoding/json"
	"testing"

	"proof/internal/graph"
)

// fuzzSeedGraph builds a small but structurally complete graph — node
// attributes, a parameter tensor, an int-data tensor — exercising every
// field of the format. Full model exports (70-200KB) are deliberately
// NOT used as seeds: real-model round-trips are covered by the regular
// tests, and the fuzz engine's input minimization is unbounded on
// inputs that large, stalling the whole run.
func fuzzSeedGraph() *graph.Graph {
	g := graph.New("seed")
	g.AddTensor(&graph.Tensor{Name: "in", DType: graph.Float32, Shape: graph.Shape{1, 3, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{4, 3, 3, 3}, Param: true})
	g.AddTensor(&graph.Tensor{
		Name: "shape", DType: graph.Int64, Shape: graph.Shape{2}, Param: true,
		IntData: []int64{1, -1},
	})
	g.AddTensor(&graph.Tensor{Name: "c"})
	g.AddTensor(&graph.Tensor{Name: "out"})
	g.AddNode(&graph.Node{
		Name: "conv", OpType: "Conv", Inputs: []string{"in", "w"}, Outputs: []string{"c"},
		Attrs: graph.MakeAttrs(
			graph.IntsAttr("kernel_shape", 3, 3),
			graph.IntsAttr("strides", 2, 2),
			graph.IntsAttr("pads", 1, 1, 1, 1),
			graph.IntAttr("group", 1),
			graph.StringAttr("equation", "ij,jk->ik"),
		),
	})
	g.AddNode(&graph.Node{Name: "rs", OpType: "Reshape", Inputs: []string{"c", "shape"}, Outputs: []string{"out"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"out"}
	return g
}

// FuzzModelFmtRoundTrip hardens the JSON model loader — the boundary
// that user-supplied -model-file inputs cross. Arbitrary bytes must
// either fail to load or round-trip stably: decode → encode → decode
// must reproduce the identical encoding and must never panic.
func FuzzModelFmtRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := Save(fuzzSeedGraph(), &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format_version":1}`))
	f.Add([]byte(`{"format_version":1,"graph":{}}`))
	f.Add([]byte(`{"format_version":1,"graph":{"name":"g","nodes":null,"tensors":null}}`))
	f.Add([]byte(`{"format_version":1,"graph":{"name":"g","tensors":{"t":{"name":"t","dtype":99,"shape":[-1,0]}},"inputs":["t"],"outputs":["t"]}}`))
	f.Add([]byte(`{"format_version":2,"graph":{"name":"g"}}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g1, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just need to not panic
		}
		var enc1 bytes.Buffer
		if err := Save(g1, &enc1); err != nil {
			t.Fatalf("loaded graph failed to save: %v", err)
		}
		g2, err := Load(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-load of own encoding failed: %v", err)
		}
		var enc2 bytes.Buffer
		if err := Save(g2, &enc2); err != nil {
			t.Fatalf("second save failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("round trip unstable:\nfirst:  %s\nsecond: %s", enc1.Bytes(), enc2.Bytes())
		}
	})
}

// FuzzValidateCorruptGraph hardens the static model verifier: any graph
// that JSON-decodes — however corrupt (nil tensor entries, negative
// dimensions, dangling references, bogus dtypes, cyclic edges) — must
// be rejected or accepted by graph.Validate with a plain error, never a
// panic. proofd depends on this: an inline graph in a profile request
// reaches Validate directly from the wire, and a panic there would turn
// a malformed request into a crashed worker instead of a 400.
func FuzzValidateCorruptGraph(f *testing.F) {
	seed, err := json.Marshal(fuzzSeedGraph())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"g","tensors":{"t":null},"inputs":["t"]}`))
	f.Add([]byte(`{"name":"g","tensors":{"t":{"name":"u","dtype":99,"shape":[-1,0]}},"outputs":["t"]}`))
	f.Add([]byte(`{"name":"g","nodes":[{"name":"n","op_type":"Relu","inputs":["x"],"outputs":["x"]}],"tensors":{"x":{"name":"x"}}}`))
	f.Add([]byte(`{"name":"g","nodes":[{"name":"a","op_type":"Add","inputs":["p","q"],"outputs":["r"]}],` +
		`"tensors":{"p":{"name":"p","dtype":1,"shape":[2,3]},"q":{"name":"q","dtype":1,"shape":[4]},"r":{"name":"r","dtype":1,"shape":[2,3]}}}`))
	f.Add([]byte(`{"name":"g","tensors":{"w":{"name":"w","dtype":1,"param":true,"int_data":[1,2,3]}}}`))
	f.Add([]byte(`{"name":"g","nodes":[null]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g graph.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // not even a graph; nothing to validate
		}
		if g.Tensors == nil {
			g.Tensors = map[string]*graph.Tensor{}
		}
		// Must classify, never panic.
		for _, ve := range g.ValidateAll() {
			if ve.Code == "" || ve.Error() == "" {
				t.Fatalf("untyped validation error: %+v", ve)
			}
		}
		_ = g.Validate()
	})
}
