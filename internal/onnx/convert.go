package onnx

import (
	"fmt"

	"proof/internal/graph"
)

// dtypeFromONNX maps ONNX TensorProto data types to the IR.
func dtypeFromONNX(dt int) (graph.DataType, error) {
	switch dt {
	case TensorFloat:
		return graph.Float32, nil
	case TensorFloat16:
		return graph.Float16, nil
	case TensorBFloat16:
		return graph.BFloat16, nil
	case TensorInt8, TensorUint8:
		return graph.Int8, nil
	case TensorInt32, TensorInt16:
		return graph.Int32, nil
	case TensorInt64:
		return graph.Int64, nil
	case TensorBool:
		return graph.Bool, nil
	case TensorDouble:
		return graph.Float32, nil // doubles analyzed as fp32
	}
	return graph.DTypeInvalid, fmt.Errorf("onnx: unsupported tensor data type %d", dt)
}

func dtypeToONNX(dt graph.DataType) int {
	switch dt {
	case graph.Float32:
		return TensorFloat
	case graph.Float16:
		return TensorFloat16
	case graph.BFloat16:
		return TensorBFloat16
	case graph.Int8:
		return TensorInt8
	case graph.Int32:
		return TensorInt32
	case graph.Int64:
		return TensorInt64
	case graph.Bool:
		return TensorBool
	}
	return TensorFloat
}

// castEnumNames maps Cast's "to" data-type enum to IR type names.
var castEnumNames = map[int64]string{
	TensorFloat: "fp32", TensorFloat16: "fp16", TensorBFloat16: "bf16",
	TensorInt8: "int8", TensorInt32: "int32", TensorInt64: "int64",
	TensorBool: "bool", TensorDouble: "fp32",
}

// tensorInt64Values extracts the int64 payload of a TensorProto (from
// int64_data or raw_data).
func tensorInt64Values(t *TensorProto) []int64 {
	if len(t.Int64Data) > 0 {
		return t.Int64Data
	}
	if len(t.RawData) >= 8 && t.DataType == TensorInt64 {
		out := make([]int64, len(t.RawData)/8)
		for i := range out {
			var v uint64
			for b := 7; b >= 0; b-- {
				v = v<<8 | uint64(t.RawData[i*8+b])
			}
			out[i] = int64(v)
		}
		return out
	}
	return nil
}

func numElements(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// ToGraph converts a parsed ONNX model into the internal IR. Symbolic
// dimensions (dim_param, usually the batch) become 1; rebatch with
// analysis.NewRepWithBatch. ONNX Constant nodes with large float
// payloads fold into initializers.
func ToGraph(m *ModelProto) (*graph.Graph, error) {
	gp := m.Graph
	name := gp.Name
	if name == "" {
		name = "onnx-model"
	}
	g := graph.New(name)

	initializers := map[string]bool{}
	for _, t := range gp.Initializer {
		dt, err := dtypeFromONNX(t.DataType)
		if err != nil {
			return nil, fmt.Errorf("onnx: initializer %q: %w", t.Name, err)
		}
		shape := make(graph.Shape, len(t.Dims))
		for i, d := range t.Dims {
			shape[i] = int(d)
		}
		tensor := &graph.Tensor{Name: t.Name, DType: dt, Shape: shape, Param: true}
		if dt == graph.Int64 && numElements(t.Dims) <= 64 {
			tensor.IntData = tensorInt64Values(t)
		}
		g.AddTensor(tensor)
		initializers[t.Name] = true
	}

	for _, vi := range gp.Input {
		if initializers[vi.Name] {
			continue // older exports list initializers as inputs
		}
		dt, err := dtypeFromONNX(vi.ElemType)
		if err != nil {
			return nil, fmt.Errorf("onnx: input %q: %w", vi.Name, err)
		}
		shape := make(graph.Shape, len(vi.Dims))
		for i, d := range vi.Dims {
			if d <= 0 {
				d = 1 // symbolic (batch) dimension
			}
			shape[i] = int(d)
		}
		g.AddTensor(&graph.Tensor{Name: vi.Name, DType: dt, Shape: shape})
		g.Inputs = append(g.Inputs, vi.Name)
	}

	usedNames := map[string]bool{}
	for i, n := range gp.Nodes {
		node, err := convertNode(g, n, i, usedNames)
		if err != nil {
			return nil, err
		}
		if node == nil {
			continue // folded (e.g. large Constant became initializer)
		}
		for _, out := range node.Outputs {
			if g.Tensor(out) == nil {
				g.AddTensor(&graph.Tensor{Name: out})
			}
		}
		g.AddNode(node)
	}

	for _, vi := range gp.Output {
		if g.Tensor(vi.Name) == nil {
			g.AddTensor(&graph.Tensor{Name: vi.Name})
		}
		g.Outputs = append(g.Outputs, vi.Name)
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("onnx: converted graph invalid: %w", err)
	}
	return g, nil
}

// convertNode translates one NodeProto; it may return (nil, nil) when
// the node folds away into an initializer.
func convertNode(g *graph.Graph, n *NodeProto, idx int, usedNames map[string]bool) (*graph.Node, error) {
	name := n.Name
	if name == "" {
		name = fmt.Sprintf("%s_%d", n.OpType, idx)
	}
	for usedNames[name] {
		name += "_"
	}
	usedNames[name] = true

	attrs := graph.Attrs{}
	var constTensor *TensorProto
	for _, a := range n.Attribute {
		switch {
		case a.Name == "value" && a.T != nil:
			constTensor = a.T
		case a.Name == "to" && n.OpType == "Cast":
			tn, ok := castEnumNames[a.I]
			if !ok {
				return nil, fmt.Errorf("onnx: Cast node %q to unsupported type %d", name, a.I)
			}
			attrs = append(attrs, graph.StringAttr("to", tn))
		case len(a.Ints) > 0 || a.Type == AttrTypeInts:
			ints := make([]int, len(a.Ints))
			for i, v := range a.Ints {
				ints[i] = int(v)
			}
			attrs = append(attrs, graph.IntsAttr(a.Name, ints...))
		case a.Type == AttrTypeInt:
			attrs = append(attrs, graph.IntAttr(a.Name, int(a.I)))
		case a.Type == AttrTypeFloat:
			attrs = append(attrs, graph.FloatAttr(a.Name, float64(a.F)))
		case a.Type == AttrTypeString:
			attrs = append(attrs, graph.StringAttr(a.Name, string(a.S)))
		}
	}

	if n.OpType == "Constant" && constTensor != nil {
		return convertConstant(g, n, name, constTensor)
	}

	// Drop empty optional-input placeholders.
	inputs := make([]string, 0, len(n.Input))
	for _, in := range n.Input {
		if in == "" {
			continue
		}
		inputs = append(inputs, in)
	}
	return &graph.Node{
		Name:    name,
		OpType:  n.OpType,
		Inputs:  inputs,
		Outputs: append([]string(nil), n.Output...),
		Attrs:   graph.MakeAttrs(attrs...),
	}, nil
}

// convertConstant lowers an ONNX Constant node: small int64 payloads
// become IR Constant nodes with value_ints (so value propagation
// works); scalar floats become value_float; anything larger folds into
// an initializer tensor and the node disappears.
func convertConstant(g *graph.Graph, n *NodeProto, name string, t *TensorProto) (*graph.Node, error) {
	out := n.Output[0]
	elems := numElements(t.Dims)
	if t.DataType == TensorInt64 && elems <= 64 {
		vals := tensorInt64Values(t)
		ints := make([]int, len(vals))
		for i, v := range vals {
			ints[i] = int(v)
		}
		return &graph.Node{
			Name: name, OpType: "Constant", Outputs: []string{out},
			Attrs: graph.Attrs{graph.IntsAttr("value_ints", ints...)},
		}, nil
	}
	if t.DataType == TensorFloat && elems == 1 {
		v := float64(0)
		if len(t.FloatData) > 0 {
			v = float64(t.FloatData[0])
		} else if len(t.RawData) >= 4 {
			v = float64(f32FromBytes(t.RawData))
		}
		return &graph.Node{
			Name: name, OpType: "Constant", Outputs: []string{out},
			Attrs: graph.Attrs{graph.FloatAttr("value_float", v)},
		}, nil
	}
	// Large constant: materialize as an initializer.
	dt, err := dtypeFromONNX(t.DataType)
	if err != nil {
		return nil, fmt.Errorf("onnx: constant %q: %w", name, err)
	}
	shape := make(graph.Shape, len(t.Dims))
	for i, d := range t.Dims {
		shape[i] = int(d)
	}
	tensor := &graph.Tensor{Name: out, DType: dt, Shape: shape, Param: true}
	if dt == graph.Int64 && elems <= 4096 {
		tensor.IntData = tensorInt64Values(t)
	}
	g.AddTensor(tensor)
	return nil, nil
}
