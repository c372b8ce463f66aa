package trtsim

import (
	"slices"
	"testing"

	"proof/internal/graph"
)

// TestLayerNodes: a layer name splits only at separators whose segments
// all name nodes, a segment may contain the separator (overlapping
// occurrences included, up to graph.MaxNameSeps of them), and a name
// that splits two ways is an ambiguous_node_names defect naming the
// layer.
func TestLayerNodes(t *testing.T) {
	g := graph.New("names")
	for _, name := range []string{"conv", "relu", "stem + conv", "p +", "q", "a", "b", "a + b", "s + + + + t", "r + + + + +"} {
		g.AddNode(&graph.Node{Name: name, OpType: "Relu"})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		layer string
		want  []string
	}{
		{"conv", []string{"conv"}},
		{"conv + relu", []string{"conv", "relu"}},
		{"stem + conv + relu", []string{"stem + conv", "relu"}},
		{"relu + stem + conv", []string{"relu", "stem + conv"}},
		{"p + + q", []string{"p +", "q"}},
		{"conv + s + + + + t + relu", []string{"conv", "s + + + + t", "relu"}},
		{"p + + s + + + + t", []string{"p +", "s + + + + t"}},
		{"r + + + + + + q", []string{"r + + + + +", "q"}},
	} {
		nodes, err := layerNodes(nil, g, tc.layer, graph.NameSeps(tc.layer, nil))
		if err != nil {
			t.Errorf("%q: %v", tc.layer, err)
			continue
		}
		var got []string
		for _, n := range nodes {
			got = append(got, n.Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q splits into %q, want %q", tc.layer, got, tc.want)
		}
	}
	if _, err := layerNodes(nil, g, "conv + nope", graph.NameSeps("conv + nope", nil)); err == nil {
		t.Error("a name with an unknown segment must not resolve")
	} else if _, ok := graph.AsValidationError(err); ok {
		t.Errorf("an unknown segment is not a graph defect: %v", err)
	}
	for _, layer := range []string{"a + b", "conv + a + b"} {
		_, err := layerNodes(nil, g, layer, graph.NameSeps(layer, nil))
		verr, ok := graph.AsValidationError(err)
		if !ok || verr.Code != graph.ErrAmbiguousNodeNames || verr.Detail != `layer "`+layer+`" splits into node names more than one way` {
			t.Errorf("%q: %v, want an %s defect naming the layer", layer, err, graph.ErrAmbiguousNodeNames)
		}
	}
}
