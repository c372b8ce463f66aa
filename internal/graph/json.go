package graph

import "proof/internal/jsonread"

// The members of each object in a graph's JSON form, in field order:
// the json tags of Graph, Node, Tensor and Attribute, which
// TestJSONFieldsMirrorTags holds them to.
var (
	graphFields  = jsonread.Fields{"name", "nodes", "tensors", "inputs", "outputs"}
	nodeFields   = jsonread.Fields{"name", "op_type", "inputs", "outputs", "attrs"}
	tensorFields = jsonread.Fields{"name", "dtype", "shape", "param", "int_data"}
	attrFields   = jsonread.Fields{"kind", "i", "ints", "f", "s"}
)

// ReadJSON reads a graph in the JSON form its struct tags define, in
// one pass, and returns what encoding/json would decode into a *Graph
// with unknown fields disallowed: nil for null, nil and empty slices
// and maps kept apart, null elements left zero. It refuses what
// jsonread refuses on top of that: a repeated field or map key. The
// graph is neither defaulted nor verified; see Admit.
func ReadJSON(r *jsonread.Reader) *Graph {
	if !r.Object() {
		return nil
	}
	g := &Graph{}
	var seen uint64
	for f := r.Field(graphFields, &seen); f >= 0; f = r.Field(graphFields, &seen) {
		switch f {
		case 0:
			g.Name = r.String()
		case 1:
			g.Nodes = jsonread.Slice(r, readNode)
		case 2:
			g.Tensors = jsonread.Map(r, readTensor)
		case 3:
			g.Inputs = jsonread.Slice(r, (*jsonread.Reader).String)
		case 4:
			g.Outputs = jsonread.Slice(r, (*jsonread.Reader).String)
		}
	}
	return g
}

func readNode(r *jsonread.Reader) *Node {
	if !r.Object() {
		return nil
	}
	n := &Node{}
	var seen uint64
	for f := r.Field(nodeFields, &seen); f >= 0; f = r.Field(nodeFields, &seen) {
		switch f {
		case 0:
			n.Name = r.String()
		case 1:
			n.OpType = r.String()
		case 2:
			n.Inputs = jsonread.Slice(r, (*jsonread.Reader).String)
		case 3:
			n.Outputs = jsonread.Slice(r, (*jsonread.Reader).String)
		case 4:
			n.Attrs = jsonread.Map(r, readAttr)
		}
	}
	return n
}

func readTensor(r *jsonread.Reader) *Tensor {
	if !r.Object() {
		return nil
	}
	t := &Tensor{}
	var seen uint64
	for f := r.Field(tensorFields, &seen); f >= 0; f = r.Field(tensorFields, &seen) {
		switch f {
		case 0:
			t.Name = r.String()
		case 1:
			t.DType = DataType(r.Int())
		case 2:
			t.Shape = jsonread.Slice(r, (*jsonread.Reader).Int)
		case 3:
			t.Param = r.Bool()
		case 4:
			t.IntData = jsonread.Slice(r, (*jsonread.Reader).Int64)
		}
	}
	return t
}

func readAttr(r *jsonread.Reader) Attribute {
	var a Attribute
	if !r.Object() {
		return a
	}
	var seen uint64
	for f := r.Field(attrFields, &seen); f >= 0; f = r.Field(attrFields, &seen) {
		switch f {
		case 0:
			a.Kind = AttrKind(r.Int())
		case 1:
			a.I = r.Int()
		case 2:
			a.Ints = jsonread.Slice(r, (*jsonread.Reader).Int)
		case 3:
			a.F = r.Float64()
		case 4:
			a.S = r.String()
		}
	}
	return a
}
