package memo

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"proof/internal/graph"
	"proof/internal/models"
)

// digestVariant is one graph of the digest differential test.
type digestVariant struct {
	name string
	g    *graph.Graph
}

// digestMutations returns single-field mutations of base, each applied
// to its own deep copy: renames, every Attribute field (also the ones
// its Kind does not read), Param, IntData, shapes (nil, [] and [1]),
// the IO lists, nil nodes and tensors. nilEmpty holds the mutations
// that only swap a nil list or map for an empty one.
func digestMutations(base *graph.Graph) (variants, nilEmpty []digestVariant) {
	add := func(into *[]digestVariant, name string, mutate func(g *graph.Graph)) {
		g := base.Clone()
		mutate(g)
		*into = append(*into, digestVariant{name, g})
	}
	mut := func(name string, mutate func(g *graph.Graph)) { add(&variants, name, mutate) }

	mut("graph name", func(g *graph.Graph) { g.Name += "'" })
	mut("graph input renamed", func(g *graph.Graph) { g.Inputs = append([]string{"other"}, g.Inputs[1:]...) })
	mut("graph input added", func(g *graph.Graph) { g.Inputs = append(slices.Clone(g.Inputs), "extra") })
	mut("graph output renamed", func(g *graph.Graph) { g.Outputs = append([]string{"other"}, g.Outputs[1:]...) })
	mut("graph outputs split", func(g *graph.Graph) { g.Outputs = append(slices.Clone(g.Outputs), "") })
	mut("nil node", func(g *graph.Graph) { g.Nodes = append(slices.Clone(g.Nodes), nil) })
	mut("nodes swapped", func(g *graph.Graph) {
		g.Nodes = slices.Clone(g.Nodes)
		g.Nodes[0], g.Nodes[1] = g.Nodes[1], g.Nodes[0]
	})

	for _, i := range []int{0, len(base.Nodes) / 2, len(base.Nodes) - 1} {
		n := base.Nodes[i]
		node := func(what string, mutate func(n *graph.Node)) {
			mut(fmt.Sprintf("node %s: %s", n.Name, what), func(g *graph.Graph) { mutate(g.Nodes[i]) })
		}
		node("renamed", func(n *graph.Node) { n.Name += "'" })
		node("op type", func(n *graph.Node) { n.OpType += "'" })
		node("input added", func(n *graph.Node) { n.Inputs = append(slices.Clone(n.Inputs), "x") })
		node("output added", func(n *graph.Node) { n.Outputs = append(slices.Clone(n.Outputs), "x") })
		node("output renamed", func(n *graph.Node) { n.Outputs = append([]string{n.Outputs[0] + "'"}, n.Outputs[1:]...) })
		node("io moved", func(n *graph.Node) { n.Inputs, n.Outputs = append(slices.Clone(n.Inputs), n.Outputs[0]), n.Outputs[1:] })
		node("attr added", func(n *graph.Node) { n.Attrs = withAttr(n.Attrs, graph.Attribute{Name: "zz"}) })
		add(&nilEmpty, fmt.Sprintf("node %s: empty inputs", n.Name), func(g *graph.Graph) {
			if len(g.Nodes[i].Inputs) == 0 {
				g.Nodes[i].Inputs = []string{}
			}
		})
		for _, a := range n.Attrs {
			key := a.Name
			attr := func(what string, mutate func(a *graph.Attribute)) {
				node(fmt.Sprintf("attr %s %s", key, what), func(n *graph.Node) {
					a, _ := n.Attrs.Get(key)
					mutate(&a)
					n.Attrs = withAttr(n.Attrs, a)
				})
			}
			node("attr "+key+" renamed", func(n *graph.Node) { n.Attrs = renameAttr(n.Attrs, key, key+"'") })
			node("attr "+key+" removed", func(n *graph.Node) { n.Attrs = withoutAttr(n.Attrs, key) })
			attr("kind", func(a *graph.Attribute) { a.Kind++ })
			attr("i", func(a *graph.Attribute) { a.I++ })
			attr("ints", func(a *graph.Attribute) { a.Ints = append(slices.Clone(a.Ints), 1) })
			attr("f", func(a *graph.Attribute) { a.F += 0.5 })
			attr("s", func(a *graph.Attribute) { a.S += "s" })
		}
	}

	for _, name := range pickTensors(base) {
		tensor := func(what string, mutate func(t *graph.Tensor)) {
			mut(fmt.Sprintf("tensor %s: %s", name, what), func(g *graph.Graph) { mutate(g.Tensors[name]) })
		}
		mut("tensor "+name+": key renamed", func(g *graph.Graph) { g.Tensors[name+"'"] = g.Tensors[name]; delete(g.Tensors, name) })
		mut("tensor "+name+": nil", func(g *graph.Graph) { g.Tensors[name] = nil })
		tensor("renamed", func(t *graph.Tensor) { t.Name += "'" })
		tensor("dtype", func(t *graph.Tensor) { t.DType++ })
		tensor("shape nil", func(t *graph.Tensor) { t.Shape = nil })
		tensor("shape []", func(t *graph.Tensor) { t.Shape = graph.Shape{} })
		tensor("shape [1]", func(t *graph.Tensor) { t.Shape = graph.Shape{1} })
		tensor("dim", func(t *graph.Tensor) {
			if len(t.Shape) > 0 {
				t.Shape = slices.Clone(t.Shape)
				t.Shape[len(t.Shape)-1]++
			}
		})
		tensor("param", func(t *graph.Tensor) { t.Param = !t.Param })
		tensor("int data added", func(t *graph.Tensor) { t.IntData = append(slices.Clone(t.IntData), 3) })
		tensor("int data changed", func(t *graph.Tensor) {
			if len(t.IntData) > 0 {
				t.IntData = slices.Clone(t.IntData)
				t.IntData[0]++
			}
		})
	}
	return variants, nilEmpty
}

// pickTensors names a graph input, a parameter, a tensor with constant
// int data and a node output of g.
func pickTensors(g *graph.Graph) []string {
	picked := []string{g.Inputs[0], g.Nodes[len(g.Nodes)/2].Outputs[0]}
	var param, ints string
	for _, name := range g.SortedTensorNames() {
		t := g.Tensors[name]
		if t.Param && param == "" {
			param = name
		}
		if t.IntData != nil && ints == "" {
			ints = name
		}
	}
	for _, name := range []string{param, ints} {
		if name != "" {
			picked = append(picked, name)
		}
	}
	return picked
}

// TestGraphDigestKeepsJSONMeaning: the framed GraphDigest tells apart
// every pair of graphs whose JSON forms differ — it keeps the meaning
// of the json.Marshal-based digest it replaced — over single-field
// mutations of zoo graphs. The one exception is a nil versus an empty
// list or map, which no reader tells apart: those mutations keep the
// digest.
func TestGraphDigestKeepsJSONMeaning(t *testing.T) {
	for _, model := range []string{"resnet-18", "shufflenetv2-0.5", "vit-t", "distilbert"} {
		built, err := models.Build(model)
		if err != nil {
			t.Fatal(err)
		}
		base := built.Clone()
		variants, nilEmpty := digestMutations(base)
		variants = append(variants, digestVariant{"base", base})
		type key struct{ json, digest string }
		keys := make([]key, len(variants))
		for i, v := range variants {
			raw, err := json.Marshal(v.g)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			d, err := GraphDigest(v.g)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = key{string(raw), d}
		}
		seen := map[string]int{} // digest -> first variant with it
		for i, k := range keys {
			j, dup := seen[k.digest]
			if !dup {
				seen[k.digest] = i
				continue
			}
			if keys[j].json != k.json {
				t.Errorf("%s: %q and %q marshal differently but share digest %s", model, variants[j].name, variants[i].name, k.digest)
			}
		}
		baseDigest := keys[len(keys)-1].digest
		for _, v := range nilEmpty {
			if d, _ := GraphDigest(v.g); d != baseDigest {
				t.Errorf("%s: %q changed the digest; a nil and an empty list must hash alike", model, v.name)
			}
		}
		t.Logf("%s: %d mutations, %d distinct digests", model, len(variants)-1, len(seen))
	}
	// An empty graph's lists and tensor map hash alike nil or empty.
	empty := graph.New("e")
	nilDigest, _ := GraphDigest(empty)
	empty.Nodes, empty.Inputs, empty.Outputs, empty.Tensors = []*graph.Node{}, []string{}, []string{}, nil
	if d, _ := GraphDigest(empty); d != nilDigest {
		t.Error("an empty graph's nil and empty lists hash differently")
	}
	// An unknown shape and a scalar shape are different tensors.
	g := graph.New("s")
	g.AddTensor(&graph.Tensor{Name: "t", DType: graph.Float32})
	unknown, _ := GraphDigest(g)
	g.Tensors["t"].Shape = graph.Shape{}
	if scalar, _ := GraphDigest(g); scalar == unknown {
		t.Error("a nil (unknown) and a [] (scalar) shape share a digest")
	}
}
