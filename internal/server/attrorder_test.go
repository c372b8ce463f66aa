package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"proof/internal/graph"
	"proof/internal/models"
	"proof/internal/onnx"
)

// attrOrderJSON returns g's JSON form with each node's attrs members in
// the order order gives for the node's list, as a client that keeps a
// node's attributes in an order of its own would post it.
func attrOrderJSON(t testing.TB, g *graph.Graph, order func(n int) []int) []byte {
	t.Helper()
	type node struct {
		Name    string          `json:"name"`
		OpType  string          `json:"op_type"`
		Inputs  []string        `json:"inputs"`
		Outputs []string        `json:"outputs"`
		Attrs   json.RawMessage `json:"attrs,omitempty"`
	}
	nodes := make([]node, len(g.Nodes))
	for i, n := range g.Nodes {
		nodes[i] = node{Name: n.Name, OpType: n.OpType, Inputs: n.Inputs, Outputs: n.Outputs}
		if len(n.Attrs) == 0 {
			continue
		}
		b := []byte{'{'}
		for j, k := range order(len(n.Attrs)) {
			key, err := json.Marshal(n.Attrs[k].Name)
			if err != nil {
				t.Fatal(err)
			}
			val, err := json.Marshal(n.Attrs[k])
			if err != nil {
				t.Fatal(err)
			}
			if j > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, key...), ':'), val...)
		}
		nodes[i].Attrs = append(b, '}')
	}
	raw, err := json.Marshal(struct {
		Name    string                   `json:"name"`
		Nodes   []node                   `json:"nodes"`
		Tensors map[string]*graph.Tensor `json:"tensors"`
		Inputs  []string                 `json:"inputs"`
		Outputs []string                 `json:"outputs"`
	}{g.Name, nodes, g.Tensors, g.Inputs, g.Outputs})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func reversed(n int) []int {
	order := inOrder(n)
	slices.Reverse(order)
	return order
}

// checkAttrsSorted fails unless every node of g lists its attributes
// by strictly increasing name.
func checkAttrsSorted(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	for _, n := range g.Nodes {
		for i := 1; i < len(n.Attrs); i++ {
			if n.Attrs[i-1].Name >= n.Attrs[i].Name {
				t.Fatalf("%s: node %q lists attribute %q before %q", what, n.Name, n.Attrs[i-1].Name, n.Attrs[i].Name)
			}
		}
	}
}

// TestAttrProducersSortByName: every producer of attribute lists yields
// names in strictly increasing order, whatever order the attributes
// came in: each zoo builder; graph.ReadJSON (through the request
// decoder) and Attrs.UnmarshalJSON (through encoding/json) on bodies
// whose attrs members are shuffled; and the ONNX importer on each zoo
// export with every node's attributes shuffled. MakeAttrs, which they
// all call, gives one list for every order of its arguments.
func TestAttrProducersSortByName(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	for _, info := range models.List() {
		built, err := models.Build(info.Key)
		if err != nil {
			t.Fatal(err)
		}
		checkAttrsSorted(t, info.Key+": built", built)

		body := []byte(`{"graph":` + string(attrOrderJSON(t, built, rng.Perm)) + `}`)
		req, err := decodeProfileRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", info.Key, err)
		}
		checkAttrsSorted(t, info.Key+": ReadJSON", req.Graph)
		oracle, err := decodeOracle(body)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", info.Key, err)
		}
		checkAttrsSorted(t, info.Key+": UnmarshalJSON", oracle.Graph)

		data, err := onnx.Export(built)
		if err != nil {
			t.Fatalf("%s: export: %v", info.Key, err)
		}
		m, err := onnx.ParseModel(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", info.Key, err)
		}
		for _, n := range m.Graph.Nodes {
			rng.Shuffle(len(n.Attribute), func(i, j int) { n.Attribute[i], n.Attribute[j] = n.Attribute[j], n.Attribute[i] })
		}
		imported, err := onnx.ToGraph(m)
		if err != nil {
			t.Fatalf("%s: import: %v", info.Key, err)
		}
		checkAttrsSorted(t, info.Key+": onnx.ToGraph", imported)
	}

	want := graph.Attrs{graph.IntAttr("axis", 1), graph.IntsAttr("kernel_shape", 3, 3), graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("strides", 2, 2)}
	for range 50 {
		as := slices.Clone(want)
		rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		if got := graph.MakeAttrs(as...); !reflect.DeepEqual(got, want) {
			t.Fatalf("MakeAttrs: %v, want %v", got, want)
		}
	}
}

// TestAttrOrderIsNotContent: posting a zoo graph with each node's attrs
// members in reverse order gives the digest and the report bytes the
// members in order give. Each order is profiled by a server of its own,
// both misses; the reversed body, posted to the server that profiled
// the ordered one, is a hit on the same key.
func TestAttrOrderIsNotContent(t *testing.T) {
	post := func(url, body, cache string) string {
		t.Helper()
		resp := postJSON(t, url+"/v1/profile", body)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != cache {
			t.Fatalf("status %d, X-Cache %q, want 200 %s (body %.200s)", resp.StatusCode, resp.Header.Get("X-Cache"), cache, b)
		}
		return string(b)
	}
	for _, model := range inlineModels {
		g, err := models.Build(model)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(attrOrderJSON(t, g, inOrder), raw) {
			t.Fatalf("%s: attrOrderJSON in order differs from json.Marshal", model)
		}
		var bodies []string
		for _, order := range []func(int) []int{inOrder, reversed} {
			body := `{"platform":"a100","batch":4,"seed":7,"graph":` + string(attrOrderJSON(t, g, order)) + `}`
			req, err := decodeProfileRequest([]byte(body))
			if err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			if d := req.Graph.Digest(); d != g.Digest() {
				t.Errorf("%s: digest %s, built %s", model, d, g.Digest())
			}
			bodies = append(bodies, body)
		}
		_, a := newTestServer(t, Config{})
		_, b := newTestServer(t, Config{})
		want := post(a.URL, bodies[0], "miss")
		if post(b.URL, bodies[1], "miss") != want || post(a.URL, bodies[1], "hit") != want {
			t.Errorf("%s: the reversed attrs changed the report", model)
		}
	}
}
