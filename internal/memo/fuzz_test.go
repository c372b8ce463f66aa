package memo

import (
	"encoding/json"
	"slices"
	"testing"

	"proof/internal/graph"
)

// FuzzLayerSignature feeds arbitrary JSON-shaped graphs through
// ContentKey and checks the two invariants the simulator's jitter
// relies on: hashing never panics on malformed graphs (missing tensors,
// nil attrs, empty shapes), and the key is a pure function of content —
// deterministic across calls and invariant under renaming every node
// and tensor. Every input also goes through GraphDigest, which must be
// deterministic and must not panic on nil nodes, tensors or maps.
func FuzzLayerSignature(f *testing.F) {
	seed := func(g *graph.Graph) {
		raw, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(convGraph(""))
	empty := graph.New("empty")
	seed(empty)
	dangling := graph.New("dangling")
	dangling.AddNode(&graph.Node{Name: "n", OpType: "Add", Inputs: []string{"missing"}, Outputs: []string{"also-missing"}})
	seed(dangling)
	f.Add([]byte(`{"name":"x","nodes":[{"op_type":"Conv","attrs":{"k":{"kind":2,"ints":[1,2]}}}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"name":"nils","nodes":[null,{"attrs":null,"inputs":null}],"tensors":{"t":null,"u":{"shape":[]}},"inputs":null}`))
	f.Add([]byte(`{"nodes":null,"tensors":null,"outputs":[]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var g graph.Graph
		if err := json.Unmarshal(raw, &g); err != nil {
			return
		}
		d1, _ := GraphDigest(&g)
		if d2, _ := GraphDigest(&g); d1 != d2 {
			t.Fatalf("graph digest not deterministic: %s != %s", d1, d2)
		}
		k1 := ContentKey(&g, g.Nodes, "normal")
		k2 := ContentKey(&g, g.Nodes, "normal")
		if k1 != k2 {
			t.Fatalf("content key not deterministic: %s != %s", k1, k2)
		}

		// Rename every node and tensor: the key must not move. Tensor
		// references inside nodes are renamed consistently so the
		// slot/sharing structure is preserved.
		// Clone copies nodes and tensors, so it needs them non-nil.
		if slices.Contains(g.Nodes, nil) {
			return
		}
		for _, tn := range g.Tensors {
			if tn == nil {
				return
			}
		}
		renamed := g.Clone()
		names := map[string]string{}
		tensors := make(map[string]*graph.Tensor, len(renamed.Tensors))
		for key, tn := range renamed.Tensors {
			names[key] = "t/" + key
			tn.Name = "t/" + tn.Name
			tensors["t/"+key] = tn
		}
		renamed.Tensors = tensors
		rename := func(refs []string) {
			for i, r := range refs {
				if n, ok := names[r]; ok {
					refs[i] = n
				} else {
					// Dangling reference: rename consistently anyway.
					names[r] = "t/" + r
					refs[i] = "t/" + r
				}
			}
		}
		for _, n := range renamed.Nodes {
			n.Name = "n/" + n.Name
			rename(n.Inputs)
			rename(n.Outputs)
		}
		rename(renamed.Inputs)
		rename(renamed.Outputs)
		if k3 := ContentKey(renamed, renamed.Nodes, "normal"); k3 != k1 {
			t.Fatalf("renaming nodes/tensors changed the content key: %s != %s", k3, k1)
		}
	})
}
