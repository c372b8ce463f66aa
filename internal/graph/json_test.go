package graph

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
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

// TestReadJSONRefusesRepeatedAttr: a node's attrs object that repeats
// a key is refused at that key's offset with the error a map gives,
// whether the repeat comes while the attributes are checked by scanning
// (the key at index 2) or by the set past eight (index 12).
func TestReadJSONRefusesRepeatedAttr(t *testing.T) {
	attr := func(name string) string { return `"` + name + `":{"kind":1,"i":1}` }
	for _, tc := range []struct {
		keys   []string
		repeat int
	}{
		{[]string{"a", "b", "a"}, 2},
		{[]string{"k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10", "k11", "k03"}, 12},
	} {
		var attrs []string
		for _, k := range tc.keys {
			attrs = append(attrs, attr(k))
		}
		prefix := `{"name":"g","nodes":[{"name":"n","op_type":"Relu","inputs":["x"],"outputs":["y"],"attrs":{` +
			strings.Join(attrs[:tc.repeat], ",") + ","
		body := prefix + strings.Join(attrs[tc.repeat:], ",") + `}}]}`
		r := jsonread.NewReader([]byte(body))
		ReadJSON(r)
		err := r.End()
		var jerr *jsonread.Error
		if !errors.As(err, &jerr) {
			t.Fatalf("repeat at %d: error %v, want a *jsonread.Error", tc.repeat, err)
		}
		want := `duplicate key "` + tc.keys[tc.repeat] + `"`
		if jerr.Msg != want || jerr.Offset != len(prefix) {
			t.Errorf("repeat at %d: %v, want %s at offset %d", tc.repeat, err, want, len(prefix))
		}
	}
	// Twelve distinct keys read in full.
	var attrs []string
	for i := range 12 {
		attrs = append(attrs, attr("k"+strconv.Itoa(100+i)))
	}
	r := jsonread.NewReader([]byte(`{"name":"g","nodes":[{"name":"n","op_type":"Relu","attrs":{` + strings.Join(attrs, ",") + `}}]}`))
	g := ReadJSON(r)
	if err := r.End(); err != nil || len(g.Nodes) != 1 || len(g.Nodes[0].Attrs) != 12 {
		t.Fatalf("twelve distinct attrs: %v", err)
	}
}
