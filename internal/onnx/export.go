package onnx

import (
	"fmt"
	"io"
	"os"

	"proof/internal/graph"
)

// opsetVersion is the opset the exporter declares.
const opsetVersion = 17

// Load parses an ONNX model from r and converts it to the internal IR.
func Load(r io.Reader) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	m, err := ParseModel(data)
	if err != nil {
		return nil, err
	}
	return ToGraph(m)
}

// LoadFile parses an ONNX model file.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Export serializes a graph as an ONNX ModelProto. The export is
// *structural*: initializer tensors carry dims and data types but no
// weight payload (PRoof's analysis never reads weight values), except
// small int64 constants whose values shape inference needs.
func Export(g *graph.Graph) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("onnx: refusing to export invalid graph: %w", err)
	}
	var model encoder
	model.writeVarintField(1, 8) // ir_version
	model.writeStringField(2, "proof")

	var gp encoder
	gp.writeStringField(2, g.Name)
	for _, n := range g.Nodes {
		sub, err := exportNode(n)
		if err != nil {
			return nil, err
		}
		gp.writeMessageField(1, sub)
	}
	for _, name := range g.SortedTensorNames() {
		t := g.Tensor(name)
		if !t.Param {
			continue
		}
		gp.writeMessageField(5, exportTensor(t))
	}
	for _, in := range g.Inputs {
		gp.writeMessageField(11, exportValueInfo(g.Tensor(in)))
	}
	for _, out := range g.Outputs {
		gp.writeMessageField(12, exportValueInfo(g.Tensor(out)))
	}
	model.writeMessageField(7, &gp)

	var opset encoder
	opset.writeVarintField(2, opsetVersion)
	model.writeMessageField(8, &opset)
	return model.buf, nil
}

// SaveFile writes the graph to an .onnx file.
func SaveFile(g *graph.Graph, path string) error {
	data, err := Export(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func exportNode(n *graph.Node) (*encoder, error) {
	var e encoder
	for _, in := range n.Inputs {
		e.writeStringField(1, in)
	}
	for _, out := range n.Outputs {
		e.writeStringField(2, out)
	}
	e.writeStringField(3, n.Name)
	e.writeStringField(4, n.OpType)

	// Constant nodes: translate value_ints/value_float back to the
	// ONNX "value" tensor attribute.
	if n.OpType == "Constant" {
		attr, err := exportConstantValue(n)
		if err != nil {
			return nil, err
		}
		e.writeMessageField(5, attr)
		return &e, nil
	}
	for _, a := range n.Attrs {
		var attr encoder
		attr.writeStringField(1, a.Name)
		switch {
		case a.Name == "to" && n.OpType == "Cast":
			dt, err := graph.ParseDataType(a.S)
			if err != nil {
				return nil, fmt.Errorf("onnx: node %q: %w", n.Name, err)
			}
			attr.writeVarintField(3, uint64(dtypeToONNX(dt)))
			attr.writeVarintField(20, AttrTypeInt)
		case a.Kind == graph.AttrInt:
			attr.writeVarintField(3, uint64(a.I))
			attr.writeVarintField(20, AttrTypeInt)
		case a.Kind == graph.AttrInts:
			vals := make([]int64, len(a.Ints))
			for i, v := range a.Ints {
				vals[i] = int64(v)
			}
			attr.writePackedInt64Field(8, vals)
			attr.writeVarintField(20, AttrTypeInts)
		case a.Kind == graph.AttrFloat:
			attr.writeFloatField(2, float32(a.F))
			attr.writeVarintField(20, AttrTypeFloat)
		case a.Kind == graph.AttrString:
			attr.writeStringField(4, a.S)
			attr.writeVarintField(20, AttrTypeString)
		default:
			return nil, fmt.Errorf("onnx: node %q attribute %q has unsupported kind", n.Name, a.Name)
		}
		e.writeMessageField(5, &attr)
	}
	return &e, nil
}

func exportConstantValue(n *graph.Node) (*encoder, error) {
	var attr encoder
	attr.writeStringField(1, "value")
	var tensor encoder
	if v, ok := n.Attrs.Get("value_ints"); ok && v.Kind == graph.AttrInts {
		vals := make([]int64, len(v.Ints))
		for i, x := range v.Ints {
			vals[i] = int64(x)
		}
		tensor.writePackedInt64Field(1, []int64{int64(len(vals))}) // dims
		tensor.writeVarintField(2, TensorInt64)
		tensor.writePackedInt64Field(7, vals)
	} else if v, ok := n.Attrs.Get("value_float"); ok {
		tensor.writeVarintField(2, TensorFloat)
		var fd encoder
		fd.writeFloatFieldPayload(float32(v.F))
		tensor.writeBytesField(4, fd.buf)
	} else {
		return nil, fmt.Errorf("onnx: Constant node %q has no exportable value", n.Name)
	}
	attr.writeMessageField(5, &tensor)
	attr.writeVarintField(20, AttrTypeTensor)
	return &attr, nil
}

func exportTensor(t *graph.Tensor) *encoder {
	var e encoder
	dims := make([]int64, len(t.Shape))
	for i, d := range t.Shape {
		dims[i] = int64(d)
	}
	e.writePackedInt64Field(1, dims)
	e.writeVarintField(2, uint64(dtypeToONNX(t.DType)))
	if t.IntData != nil {
		e.writePackedInt64Field(7, t.IntData)
	}
	e.writeStringField(8, t.Name)
	return &e
}

func exportValueInfo(t *graph.Tensor) *encoder {
	var e encoder
	e.writeStringField(1, t.Name)
	var typ, tt, shape encoder
	tt.writeVarintField(1, uint64(dtypeToONNX(t.DType)))
	for _, d := range t.Shape {
		var dim encoder
		dim.writeVarintField(1, uint64(d))
		shape.writeMessageField(1, &dim)
	}
	tt.writeMessageField(2, &shape)
	typ.writeMessageField(1, &tt)
	e.writeMessageField(2, &typ)
	return &e
}

// writeFloatFieldPayload appends a bare little-endian float32 (for
// packed float_data payloads).
func (e *encoder) writeFloatFieldPayload(v float32) {
	var sub [4]byte
	putF32(sub[:], v)
	e.buf = append(e.buf, sub[:]...)
}
