package graph

import (
	"errors"
	"fmt"
	"testing"
)

// corrupt applies one named corruption to a valid tiny graph and
// returns it. The table below asserts each corruption is rejected with
// its typed code — the contract proofd's invalid_model responses rely
// on.
func TestValidateCorruptionClasses(t *testing.T) {
	base := func() *Graph {
		g := New("victim")
		g.AddTensor(&Tensor{Name: "in", DType: Float32, Shape: Shape{1, 4}})
		g.AddTensor(&Tensor{Name: "w", DType: Float32, Shape: Shape{4}, Param: true})
		g.AddTensor(&Tensor{Name: "mid", DType: Float32, Shape: Shape{1, 4}})
		g.AddTensor(&Tensor{Name: "out", DType: Float32, Shape: Shape{1, 4}})
		g.AddNode(&Node{Name: "add", OpType: "Add", Inputs: []string{"in", "w"}, Outputs: []string{"mid"}})
		g.AddNode(&Node{Name: "act", OpType: "Relu", Inputs: []string{"mid"}, Outputs: []string{"out"}})
		g.Inputs = []string{"in"}
		g.Outputs = []string{"out"}
		return g
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base graph must be valid: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(*Graph)
		want    ValidationCode
	}{
		{"empty node name", func(g *Graph) { g.Nodes[0].Name = "" }, ErrEmptyNodeName},
		{"null node", func(g *Graph) { g.Nodes[1] = nil }, ErrEmptyNodeName},
		{"duplicate node name", func(g *Graph) { g.Nodes[1].Name = "add" }, ErrDuplicateNode},
		// Five overlapping occurrences of " + ", two apart.
		{"name holds the layer-name separator too often", func(g *Graph) { g.Nodes[1].Name = "p + + + + + q" }, ErrNameSeparators},
		{"two producers of one tensor", func(g *Graph) {
			g.AddNode(&Node{Name: "dup", OpType: "Relu", Inputs: []string{"in"}, Outputs: []string{"out"}})
		}, ErrMultiProducer},
		{"dangling node input", func(g *Graph) { g.Nodes[0].Inputs[0] = "ghost" }, ErrDanglingTensor},
		{"dangling node output", func(g *Graph) { delete(g.Tensors, "mid") }, ErrDanglingTensor},
		{"dangling graph input", func(g *Graph) { g.Inputs = append(g.Inputs, "ghost") }, ErrDanglingTensor},
		{"dangling graph output", func(g *Graph) { g.Outputs = []string{"ghost"} }, ErrDanglingTensor},
		{"output without producer", func(g *Graph) {
			g.AddTensor(&Tensor{Name: "island", DType: Float32, Shape: Shape{1}})
			g.Outputs = []string{"island"}
		}, ErrMissingProducer},
		{"cycle", func(g *Graph) {
			g.Nodes[0].Inputs[0] = "out" // out feeds add feeds mid feeds act feeds out
		}, ErrCycle},
		{"nil tensor entry", func(g *Graph) { g.Tensors["mid"] = nil }, ErrBadTensor},
		{"tensor name disagrees with key", func(g *Graph) { g.Tensors["mid"].Name = "other" }, ErrBadTensor},
		{"non-positive dimension", func(g *Graph) { g.Tensors["mid"].Shape = Shape{1, -4} }, ErrBadTensor},
		{"element count overflows int64", func(g *Graph) { g.Tensors["mid"].Shape = Shape{1, 1 << 62, 4} }, ErrBadTensor},
		{"byte size overflows int64", func(g *Graph) { g.Tensors["mid"].Shape = Shape{1 << 31, 1 << 31} }, ErrBadTensor},
		{"param without shape", func(g *Graph) { g.Tensors["w"].Shape = nil }, ErrBadTensor},
		{"param with invalid dtype", func(g *Graph) { g.Tensors["w"].DType = DTypeInvalid }, ErrBadTensor},
		{"int data contradicts shape", func(g *Graph) {
			g.Tensors["w"].IntData = []int64{1, 2}
		}, ErrBadTensor},
		{"unused initializer", func(g *Graph) {
			g.AddTensor(&Tensor{Name: "dead_w", DType: Float32, Shape: Shape{8}, Param: true})
		}, ErrUnusedParam},
		{"elementwise rank contradiction", func(g *Graph) {
			g.Tensors["out"].Shape = Shape{1, 4, 1}
		}, ErrShapeContradiction},
		{"unbroadcastable binary inputs", func(g *Graph) {
			g.Tensors["w"].Shape = Shape{3}
		}, ErrShapeContradiction},
		{"no nodes and no outputs", func(g *Graph) {
			g.Nodes, g.Outputs = nil, nil
			delete(g.Tensors, "w")
		}, ErrEmptyGraph},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := base()
			tc.corrupt(g)
			errs := g.ValidateAll()
			if len(errs) == 0 {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			found := false
			for _, e := range errs {
				if e.Code == tc.want {
					found = true
				}
				if e.Graph != "victim" {
					t.Errorf("error %v lost graph name: %q", e.Code, e.Graph)
				}
			}
			if !found {
				t.Errorf("want code %q, got %v", tc.want, errs)
			}
			// Validate returns the first of the same defects, typed.
			err := g.Validate()
			if err == nil {
				t.Fatal("Validate returned nil on corrupt graph")
			}
			if _, ok := AsValidationError(err); !ok {
				t.Errorf("Validate error is not a *ValidationError: %T", err)
			}
		})
	}
}

// TestValidationErrorUnwrapsThroughWrapping: the typed error must
// survive fmt.Errorf %w chains — that is how core's pipeline hands it
// to proofd.
func TestValidationErrorUnwrapsThroughWrapping(t *testing.T) {
	g := New("wrapped")
	g.Outputs = []string{"ghost"}
	err := g.Validate()
	wrapped := fmt.Errorf("core: model build: %w", err)
	ve, ok := AsValidationError(wrapped)
	if !ok {
		t.Fatalf("AsValidationError failed on wrapped error %v", wrapped)
	}
	if ve.Code != ErrDanglingTensor || ve.Tensor != "ghost" {
		t.Errorf("unexpected unwrapped error: %+v", ve)
	}
	var target *ValidationError
	if !errors.As(wrapped, &target) {
		t.Error("errors.As must find *ValidationError")
	}
}

// TestValidateOutputMayBeInput: an identity-style graph whose output
// is a graph input is legal (no producer needed).
func TestValidateOutputMayBeInput(t *testing.T) {
	g := New("identity")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"x"}
	if err := g.Validate(); err != nil {
		t.Errorf("input-as-output should validate: %v", err)
	}
}

// TestValidateAllReportsEverything: multiple independent defects are
// all reported in one pass, not just the first.
func TestValidateAllReportsEverything(t *testing.T) {
	g := New("multi")
	g.AddTensor(&Tensor{Name: "in", DType: Float32, Shape: Shape{1}})
	g.AddTensor(&Tensor{Name: "dead_w", DType: Float32, Shape: Shape{8}, Param: true})
	g.AddNode(&Node{Name: "", OpType: "Relu", Inputs: []string{"in"}, Outputs: []string{"ghost"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"missing"}
	codes := map[ValidationCode]bool{}
	for _, e := range g.ValidateAll() {
		codes[e.Code] = true
	}
	for _, want := range []ValidationCode{ErrEmptyNodeName, ErrDanglingTensor, ErrUnusedParam} {
		if !codes[want] {
			t.Errorf("missing code %q in %v", want, codes)
		}
	}
}

// TestValidateUnusedParamsSorted: unused initializers are reported in
// name order, whatever order map iteration visits them in, so the
// first error (what Validate and proofd's invalid_model answer carry)
// is stable.
func TestValidateUnusedParamsSorted(t *testing.T) {
	g := New("dead-weights")
	g.AddTensor(&Tensor{Name: "in", DType: Float32, Shape: Shape{1, 4}})
	g.AddTensor(&Tensor{Name: "out", DType: Float32, Shape: Shape{1, 4}})
	g.AddNode(&Node{Name: "act", OpType: "Relu", Inputs: []string{"in"}, Outputs: []string{"out"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"out"}
	want := []string{"a_w", "b_w", "c_w", "m_w", "x_w", "z_w"}
	for _, name := range []string{"x_w", "a_w", "m_w", "z_w", "c_w", "b_w"} {
		g.AddTensor(&Tensor{Name: name, DType: Float32, Shape: Shape{4}, Param: true})
	}
	for i := 0; i < 20; i++ {
		var got []string
		for _, e := range g.ValidateAll() {
			if e.Code == ErrUnusedParam {
				got = append(got, e.Tensor)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("unused params reported as %v, want %v", got, want)
		}
	}
}
