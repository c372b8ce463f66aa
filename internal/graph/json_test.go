package graph

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"proof/internal/jsonread"
)

// TestJSONFieldsMirrorTags holds the graph decoder's field lists to the
// json tags of the structs it fills, in field order. A field tagged
// "-" (an attribute's name, which is its key) is no member.
func TestJSONFieldsMirrorTags(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		fields jsonread.Fields
	}{
		{reflect.TypeOf(Graph{}), graphFields},
		{reflect.TypeOf(Node{}), nodeFields},
		{reflect.TypeOf(Tensor{}), tensorFields},
		{reflect.TypeOf(Attribute{}), attrFields},
	} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			if f := tc.typ.Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				tags = append(tags, strings.Split(f.Tag.Get("json"), ",")[0])
			}
		}
		if !reflect.DeepEqual(tags, []string(tc.fields)) {
			t.Errorf("%s: decoder reads %v, tags are %v", tc.typ.Name(), tc.fields, tags)
		}
	}
}

// TestReadJSONListsShareNothing: a decoded graph's lists are capped
// runs of shared arrays, so appending to any of them leaves every other
// list as read, and two graphs read from one body share no array, so
// writing one's shapes leaves the other's alone. The chain is long
// enough for its lists to span several arrays of each kind.
func TestReadJSONListsShareNothing(t *testing.T) {
	g := convChain(64)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.OpType == "Conv" { // five attributes a node, so they span several arrays too
			n.Attrs = MakeAttrs(append(n.Attrs, IntsAttr("strides", 1, 1), IntsAttr("pads", 0, 0, 0, 0),
				IntsAttr("dilations", 1, 1), IntAttr("group", 1))...)
		}
	}
	g.AddTensor(&Tensor{Name: "k", DType: Int64, Shape: Shape{3}, Param: true, IntData: []int64{1, 2, 3}})
	g.AddTensor(&Tensor{Name: "m", DType: Int64, Shape: Shape{2}, Param: true, IntData: []int64{4, 5}})
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	read := func() *Graph {
		r := jsonread.NewReader(body)
		g := ReadJSON(r)
		if err := r.End(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b, want := read(), read(), read()
	if !reflect.DeepEqual(a, want) {
		t.Fatal("two reads of one body differ")
	}

	_ = append(a.Nodes, nil)
	_ = append(a.Inputs, "#")
	_ = append(a.Outputs, "#")
	for _, n := range a.Nodes {
		_ = append(n.Inputs, "#")
		_ = append(n.Outputs, "#")
		_ = append(n.Attrs, Attribute{Name: "#"})
		for _, at := range n.Attrs {
			_ = append(at.Ints, -1)
		}
	}
	for _, tt := range a.Tensors {
		_ = append(tt.Shape, -1)
		_ = append(tt.IntData, -1)
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatal("appending to a decoded list wrote into another list")
	}

	for _, tt := range a.Tensors {
		for i := range tt.Shape {
			tt.Shape[i] = -1
		}
		for i := range tt.IntData {
			tt.IntData[i] = -1
		}
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatal("writing one decoded graph's shapes changed another's")
	}
}
