package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Tensor describes one named tensor in the graph: either a graph input, a
// parameter (ONNX initializer — weights, biases), or an intermediate
// activation. Tensor contents are not stored; PRoof's analysis only needs
// shapes and element types.
type Tensor struct {
	Name  string   `json:"name"`
	DType DataType `json:"dtype"`
	Shape Shape    `json:"shape"`
	// Param marks parameter tensors (weights). Parameter bytes are
	// counted once per inference in the memory-access model (Eq. 1),
	// while activations scale with batch size.
	Param bool `json:"param,omitempty"`
	// IntData optionally carries the value of small constant integer
	// tensors (Gather indices, Reshape shape inputs, ...). Shape
	// inference propagates these values through shape-computation
	// chains (Shape -> Gather -> Concat -> Reshape), exactly like
	// ONNX shape inference with partial data propagation.
	IntData []int64 `json:"int_data,omitempty"`
}

// Bytes returns the total size of the tensor in bytes, or 0 when the shape
// is unknown; a size int64 cannot hold reads as -1 (see NumElements).
func (t *Tensor) Bytes() int64 {
	if t.Shape == nil || !t.DType.Valid() {
		return 0
	}
	return MulCount(t.Shape.NumElements(), int64(t.DType.Size()))
}

// overflows reports whether t's element count or byte size overflows
// int64. A shape with a non-positive dimension is a defect of its own,
// and does not overflow. No element is wider than 8 bytes, so a count
// up to MaxInt64/8 needs no look at the data type.
func (t *Tensor) overflows() bool {
	for _, d := range t.Shape {
		if d <= 0 {
			return false
		}
	}
	n := t.Shape.NumElements()
	return n < 0 || n > math.MaxInt64/8 && t.Bytes() < 0
}

// Clone returns a deep copy; the copy of a nil tensor is nil.
func (t *Tensor) Clone() *Tensor {
	if t == nil {
		return nil
	}
	c := *t
	c.Shape = t.Shape.Clone()
	c.IntData = append([]int64(nil), t.IntData...)
	return &c
}

// Node is one operator instance (an ONNX node): an op type, named input
// and output tensors, and attributes.
type Node struct {
	Name    string   `json:"name"`
	OpType  string   `json:"op_type"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	Attrs   Attrs    `json:"attrs,omitempty"`

	// adm, pos and refs are written once, by the Admit that takes the
	// node (see admission): the admission that owns it, its index in
	// the admitted topological order, and the tensor slots of its
	// Inputs followed by its Outputs. A raw node has none of them.
	adm  *admission
	pos  int
	refs []int32
}

// Clone returns a deep copy of the node, which no admission owns; the
// copy of a nil node is nil.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{
		Name:    n.Name,
		OpType:  n.OpType,
		Inputs:  append([]string(nil), n.Inputs...),
		Outputs: append([]string(nil), n.Outputs...),
		Attrs:   n.Attrs.Clone(),
	}
	return c
}

func (n *Node) String() string {
	return fmt.Sprintf("%s(%s: %s -> %s)", n.OpType, n.Name,
		strings.Join(n.Inputs, ","), strings.Join(n.Outputs, ","))
}

// Graph is a directed acyclic dataflow graph of Nodes over named Tensors.
// It corresponds to an ONNX GraphProto.
type Graph struct {
	Name    string             `json:"name"`
	Nodes   []*Node            `json:"nodes"`
	Tensors map[string]*Tensor `json:"tensors"`
	// Inputs and Outputs are the names of the graph-level input and
	// output tensors (excluding parameters).
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`

	// adm is set on an admitted graph and on its views; see Admit.
	adm *admission
	// tensors holds a view's own tensor copies, by admission slot; see
	// View.
	tensors []Tensor
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, Tensors: map[string]*Tensor{}}
}

// AddTensor registers a tensor, replacing any previous tensor of the same
// name.
func (g *Graph) AddTensor(t *Tensor) {
	g.Tensors[t.Name] = t
}

// Tensor returns the named tensor or nil. A view resolves the name
// through its admission's slot table to its own copy.
//
//lint:hotpath
func (g *Graph) Tensor(name string) *Tensor {
	if g.isView() {
		if i, ok := g.adm.slots[name]; ok {
			return &g.tensors[i]
		}
		return nil
	}
	return g.Tensors[name]
}

// tensorAt returns the tensor in admission slot s: a view's own copy,
// or the admitted tensor.
func (g *Graph) tensorAt(s int32) *Tensor {
	if g.tensors != nil {
		return &g.tensors[s]
	}
	return g.adm.tensors[s]
}

// owns reports whether n was admitted with g (g is its admitted graph
// or a view of it), so its positions and slots index g's tables.
func (g *Graph) owns(n *Node) bool {
	return n != nil && g.adm != nil && n.adm == g.adm
}

// In returns node n's i-th input tensor, or nil when it is not
// registered. A node admitted with g reads it by slot; any other node
// resolves the name.
//
//lint:hotpath
func (g *Graph) In(n *Node, i int) *Tensor {
	if g.owns(n) {
		return g.tensorAt(n.refs[i])
	}
	return g.Tensor(n.Inputs[i])
}

// Out returns node n's i-th output tensor, or nil when it is not
// registered; see In.
//
//lint:hotpath
func (g *Graph) Out(n *Node, i int) *Tensor {
	if g.owns(n) {
		return g.tensorAt(n.refs[len(n.Inputs)+i])
	}
	return g.Tensor(n.Outputs[i])
}

// InProducer returns the node producing node n's i-th input, or nil for
// a graph input or parameter; see In.
//
//lint:hotpath
func (g *Graph) InProducer(n *Node, i int) *Node {
	if g.owns(n) {
		return g.adm.producer[n.refs[i]]
	}
	return g.Producer(n.Inputs[i])
}

// OutConsumers returns the nodes consuming node n's i-th output; see
// In. Callers must not modify the slice.
//
//lint:hotpath
func (g *Graph) OutConsumers(n *Node, i int) []*Node {
	if g.owns(n) {
		return g.adm.consumersOf(n.refs[len(n.Inputs)+i])
	}
	return g.Consumers(n.Outputs[i])
}

// Pos returns node n's index in the admitted topological order, or -1
// for a node not admitted with g.
//
//lint:hotpath
func (g *Graph) Pos(n *Node) int {
	if g.owns(n) {
		return n.pos
	}
	return -1
}

// eachTensor calls f with every registered tensor and the name it is
// registered under: a view's own copies in slot order, or any other
// graph's Tensors map.
func (g *Graph) eachTensor(f func(name string, t *Tensor)) {
	if g.isView() {
		for i := range g.tensors {
			f(g.adm.tensors[i].Name, &g.tensors[i])
		}
		return
	}
	for name, t := range g.Tensors {
		f(name, t)
	}
}

// AddNode appends a node to the graph.
func (g *Graph) AddNode(n *Node) {
	g.Nodes = append(g.Nodes, n)
}

// Node returns the node with the given name, or nil. An admitted graph
// and its views look the name up in the admission's name table; a raw
// graph scans its nodes.
func (g *Graph) Node(name string) *Node {
	if g.adm != nil {
		return g.adm.nodes[name]
	}
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Producer returns the node producing the named tensor, or nil for graph
// inputs and parameters. An admitted graph and its views resolve the
// name to its slot; a raw graph, which may be rewired at any time,
// scans its nodes, and the last node producing the name wins.
func (g *Graph) Producer(name string) *Node {
	if a := g.adm; a != nil {
		if s, ok := a.slots[name]; ok {
			return a.producer[s]
		}
		return nil
	}
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		if slices.Contains(g.Nodes[i].Outputs, name) {
			return g.Nodes[i]
		}
	}
	return nil
}

// Lookup resolves a tensor name once, to the tensor registered under it
// and the node producing it (nil for a graph input or parameter); both
// are nil for a name that is not registered. It serves the names a
// runtime hands over, such as a layer's boundary tensors.
func (g *Graph) Lookup(name string) (*Tensor, *Node) {
	if a := g.adm; a != nil {
		s, ok := a.slots[name]
		if !ok {
			return nil, nil
		}
		return g.tensorAt(int32(s)), a.producer[s]
	}
	return g.Tensor(name), g.Producer(name)
}

// Consumers returns the nodes consuming the named tensor, in
// declaration order and once per consuming reference, or nil; see
// Producer. Callers must not modify the slice.
func (g *Graph) Consumers(name string) []*Node {
	if a := g.adm; a != nil {
		if s, ok := a.slots[name]; ok {
			return a.consumersOf(int32(s))
		}
		return nil
	}
	k := 0
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == name {
				k++
			}
		}
	}
	if k == 0 {
		return nil
	}
	//lint:ignore hotalloc a raw graph scans its nodes on every call; an admitted graph's accessors never reach it
	cs := make([]*Node, k)
	k = 0
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == name {
				cs[k] = n
				k++
			}
		}
	}
	return cs
}

// ParamCount returns the total number of parameter elements (the "Params
// (M)" column of Table 3 divides this by 1e6), or -1 when the total
// overflows int64 (see AddCount).
func (g *Graph) ParamCount() int64 {
	var n int64
	g.eachTensor(func(_ string, t *Tensor) {
		if t.Param {
			n = AddCount(n, t.Shape.NumElements())
		}
	})
	return n
}

// Clone deep-copies the graph (nodes, tensors, IO lists) into a raw
// graph; a view's clone carries the view's own tensors.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	c.Inputs = append([]string(nil), g.Inputs...)
	c.Outputs = append([]string(nil), g.Outputs...)
	for _, n := range g.Nodes {
		c.Nodes = append(c.Nodes, n.Clone())
	}
	g.eachTensor(func(name string, t *Tensor) {
		c.Tensors[name] = t.Clone()
	})
	return c
}

// TopoSort returns the nodes in a topological order (inputs before
// consumers). Among ready nodes, declaration order wins, so the result
// preserves the builder's program order: a Constant declared next to its
// consumer stays next to it instead of floating to the front. It returns
// an error when the graph has a cycle. It numbers every name the nodes
// reference, registered or not, and sorts as admission does
// (resolution.index), so it holds for any graph and keeps nothing.
func (g *Graph) TopoSort() ([]*Node, error) {
	r := &resolution{
		slots:  make(map[string]int, len(g.Nodes)),
		refAt:  make([]int32, len(g.Nodes)+1),
		cstart: []int32{0},
	}
	ref := func(name string) int32 {
		s, ok := r.slots[name]
		if !ok {
			s = len(r.producer)
			r.slots[name] = s
			r.producer = append(r.producer, -1)
			r.cstart = append(r.cstart, 0)
		}
		r.refs = append(r.refs, int32(s))
		return int32(s)
	}
	for i, n := range g.Nodes {
		r.refAt[i] = int32(len(r.refs))
		for _, in := range n.Inputs {
			r.cstart[ref(in)+1]++
		}
		for _, o := range n.Outputs {
			r.producer[ref(o)] = int32(i)
		}
	}
	r.refAt[len(g.Nodes)] = int32(len(r.refs))
	r.index(g)
	if len(r.order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph %s: cycle detected (%d of %d nodes sorted)", g.Name, len(r.order), len(g.Nodes))
	}
	order := make([]*Node, len(r.order))
	for p, i := range r.order {
		order[p] = g.Nodes[i]
	}
	return order, nil
}

// declHeap is a binary min-heap of node declaration indices:
// resolution.index's ready set, popped lowest declaration first.
type declHeap []int

func (h *declHeap) push(v int) {
	*h = append(*h, v)
	items := *h
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if items[i] >= items[parent] {
			break
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
}

func (h *declHeap) pop() int {
	items := *h
	top := items[0]
	last := len(items) - 1
	items[0] = items[last]
	items = items[:last]
	*h = items
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(items) && items[l] < items[smallest] {
			smallest = l
		}
		if r < len(items) && items[r] < items[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		items[i], items[smallest] = items[smallest], items[i]
		i = smallest
	}
	return top
}

// ConvertFloatTensors retargets every floating-point tensor (parameters
// and activations) to the given data type — how a deployment converts a
// model to fp16 or int8 for inference. Integer index/shape tensors are
// untouched. Re-run shape inference afterwards if nodes carry
// dtype-sensitive semantics.
func (g *Graph) ConvertFloatTensors(dt DataType) {
	g.eachTensor(func(_ string, t *Tensor) {
		switch t.DType {
		case Float32, Float16, BFloat16:
			t.DType = dt
		}
	})
}

// SortedTensorNames returns all tensor names sorted, for deterministic
// iteration.
func (g *Graph) SortedTensorNames() []string {
	// A view's tensors are in g.tensors, any other graph's in g.Tensors.
	names := make([]string, 0, len(g.Tensors)+len(g.tensors))
	g.eachTensor(func(name string, _ *Tensor) {
		names = append(names, name)
	})
	sort.Strings(names)
	return names
}
