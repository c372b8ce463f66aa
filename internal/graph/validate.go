package graph

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ValidationCode identifies one class of structural corruption a graph
// can carry. The codes are stable wire-friendly strings: proofd's
// invalid_model responses carry them verbatim, and tests assert on
// them rather than on message text.
type ValidationCode string

const (
	// ErrEmptyGraph: the graph has neither nodes nor outputs: it
	// computes nothing and returns nothing, so there is nothing to
	// profile. (A graph that only passes an input through to its
	// output has no nodes but is a graph.)
	ErrEmptyGraph ValidationCode = "empty_graph"
	// ErrEmptyNodeName: a node is null or has no name.
	ErrEmptyNodeName ValidationCode = "empty_node_name"
	// ErrDuplicateNode: two nodes share a name.
	ErrDuplicateNode ValidationCode = "duplicate_node"
	// ErrMultiProducer: two nodes produce the same tensor.
	ErrMultiProducer ValidationCode = "multi_producer"
	// ErrDanglingTensor: a node or the graph IO list references a
	// tensor that is not registered.
	ErrDanglingTensor ValidationCode = "dangling_tensor"
	// ErrMissingProducer: a graph output is neither produced by a node
	// nor a graph input.
	ErrMissingProducer ValidationCode = "missing_producer"
	// ErrCycle: the dataflow graph is not acyclic.
	ErrCycle ValidationCode = "cycle"
	// ErrBadTensor: a registered tensor is internally inconsistent —
	// registered under a different name than it carries, nil, a known
	// shape with a non-positive dimension or more elements or bytes
	// than int64 holds, a parameter without a concrete shape or element
	// type, or constant int data whose length contradicts the shape.
	ErrBadTensor ValidationCode = "bad_tensor"
	// ErrShapeContradiction: declared tensor shapes contradict what
	// the operator semantics imply (an element-wise op whose known
	// input and output ranks differ, or element-wise binary inputs
	// that do not broadcast).
	ErrShapeContradiction ValidationCode = "shape_contradiction"
	// ErrUnusedParam: a parameter (initializer) tensor is consumed by
	// no node and is not a graph output — dead weight that skews the
	// memory-access model.
	ErrUnusedParam ValidationCode = "unused_param"
	// ErrShapeInference: shape inference fails at the graph's input
	// shapes (InferShapes), e.g. a Reshape whose target no longer
	// matches once the batch dimension changes, or a tensor size or a
	// cost figure at those shapes overflows int64 (OverflowDefect).
	ErrShapeInference ValidationCode = "shape_inference"
	// ErrAmbiguousNodeNames: a runtime's name for a fused layer splits
	// into the graph's node names more than one way. TensorRT joins
	// node names with " + ", so nodes named "a", "b" and "a + b" in
	// one graph make a layer named "a + b" ambiguous.
	ErrAmbiguousNodeNames ValidationCode = "ambiguous_node_names"
	// ErrNameSeparators: a node name holds LayerNameSep more than
	// MaxNameSeps times.
	ErrNameSeparators ValidationCode = "name_separators"
)

// LayerNameSep joins node names into the name of a fused layer, as
// TensorRT does ("conv + bn + relu"); layer mapping splits such a name
// back into nodes.
const LayerNameSep = " + "

// MaxNameSeps is the most occurrences of LayerNameSep, overlapping ones
// included, that one node name may hold. A segment of a split layer
// name is a node name, so it spans at most this many of the layer
// name's separators: splitting a name tries a fixed number of segments
// per separator, however long the name.
const MaxNameSeps = 4

// NameSeps appends the index of every occurrence of LayerNameSep in s,
// overlapping ones included, to dst.
func NameSeps(s string, dst []int) []int {
	for i := 0; ; {
		j := strings.Index(s[i:], LayerNameSep)
		if j < 0 {
			return dst
		}
		dst = append(dst, i+j)
		i += j + 1
	}
}

// ValidationError is one defect found by Validate, or by InferShapes
// at the graph's input shapes. It is a typed error so callers (core's pipeline, proofd's HTTP edge) can
// distinguish "the model is broken" from "the profiler is broken" and
// answer with a structured 400 instead of an opaque 500.
type ValidationError struct {
	Code   ValidationCode `json:"code"`
	Graph  string         `json:"graph,omitempty"`
	Node   string         `json:"node,omitempty"`
	Tensor string         `json:"tensor,omitempty"`
	Detail string         `json:"detail"`
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("graph %s: %s", e.Graph, e.Detail)
}

// OverflowDefect is the defect of a graph whose figure what, of node
// (empty for the whole graph), overflows int64 at the graph's input
// shapes, e.g. once its batch dimension is set.
func (g *Graph) OverflowDefect(node, what string) *ValidationError {
	return &ValidationError{
		Code: ErrShapeInference, Graph: g.Name, Node: node,
		Detail: what + " overflows int64 at the graph's input shapes",
	}
}

// AsValidationError unwraps err to the *ValidationError it carries, if
// any.
func AsValidationError(err error) (*ValidationError, bool) {
	var v *ValidationError
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// Validate checks the graph's structural invariants and returns the
// first defect found (as a *ValidationError), or nil. See ValidateAll
// for the full check list.
func (g *Graph) Validate() error {
	if errs := g.ValidateAll(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// ValidateAll runs the full structural verification and returns every
// defect found: a graph without nodes or outputs, node-name uniqueness
// and separators (MaxNameSeps), single-producer consistency,
// dangling tensor references, graph IO registration and producedness,
// per-tensor sanity (name/registration agreement, positive dimensions,
// concrete parameter shapes and dtypes, int-data length), element-wise
// shape-rank contradictions against the declared shapes, unused
// initializers, and acyclicity. Checks that only make sense on fully
// shaped tensors are skipped for tensors whose shape is still unknown,
// so ValidateAll is safe both before and after shape inference.
func (g *Graph) ValidateAll() []*ValidationError {
	errs, _ := g.validate(g.SortedTensorNames())
	return errs
}

// ValidateInputData re-checks the one ValidateAll invariant that
// rebatching a verified graph can break: a graph input's constant int
// data must match its shape. It returns the first bad_tensor defect.
func (g *Graph) ValidateInputData() error {
	for _, in := range g.Inputs {
		if e := g.intDataDefect(in, g.Tensor(in)); e != nil {
			return e
		}
	}
	return nil
}

// intDataDefect reports t, registered under key, when its constant int
// data contradicts its known shape.
func (g *Graph) intDataDefect(key string, t *Tensor) *ValidationError {
	if t == nil || t.IntData == nil || !t.Shape.Valid() || int64(len(t.IntData)) == t.Shape.NumElements() {
		return nil
	}
	return &ValidationError{
		Code: ErrBadTensor, Graph: g.Name, Tensor: key,
		Detail: fmt.Sprintf("tensor %q carries %d int values for shape %v (%d elements)",
			key, len(t.IntData), t.Shape, t.Shape.NumElements()),
	}
}

// resolution is what validate resolves on the way to its verdict, so
// Admit keeps it rather than resolving the graph again. Slot s is
// names[s], registered as tensors[s]; an unregistered (or nil) tensor
// reference resolves to slot -1. Nodes are named by declaration index.
type resolution struct {
	slots   map[string]int
	tensors []*Tensor
	// refs holds every node's Inputs then Outputs slots, node after
	// node: node i's are refs[refAt[i]:refAt[i+1]].
	refs  []int32
	refAt []int32
	// producer holds each slot's producing node, or -1. consumers lists
	// each slot's consuming nodes, once per consuming reference:
	// consumers[cstart[s]:cstart[s+1]].
	producer  []int32
	consumers []int32
	cstart    []int32
	// nodes is the name → node table; order is the topological order,
	// nil when validate found a defect.
	nodes map[string]*Node
	order []int32
}

// validate is ValidateAll over the tensors registered under names,
// which it resolves to slots in that order. It returns also the
// resolution: every reference's slot, producers and consumers by slot,
// the name → node table its duplicate check built, and the topological
// order its acyclicity check computed, so Admit resolves, indexes and
// sorts the graph once.
func (g *Graph) validate(names []string) ([]*ValidationError, *resolution) {
	var errs []*ValidationError
	report := func(code ValidationCode, node, tensor, format string, args ...any) {
		errs = append(errs, &ValidationError{
			Code: code, Graph: g.Name, Node: node, Tensor: tensor,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	r := &resolution{
		slots:    make(map[string]int, len(names)),
		tensors:  make([]*Tensor, len(names)),
		refAt:    make([]int32, len(g.Nodes)+1),
		producer: make([]int32, len(names)),
		cstart:   make([]int32, len(names)+1),
		nodes:    make(map[string]*Node, len(g.Nodes)),
	}
	for s, name := range names {
		r.slots[name] = s
		r.tensors[s] = g.Tensor(name)
		r.producer[s] = -1
	}
	slot := func(name string) int32 {
		if s, ok := r.slots[name]; ok && r.tensors[s] != nil {
			return int32(s)
		}
		return -1
	}
	tensor := func(s int32) *Tensor {
		if s < 0 {
			return nil
		}
		return r.tensors[s]
	}

	// Resolve every reference of every node; count consumers by slot
	// (cstart[s+1] for now).
	nrefs := 0
	for _, n := range g.Nodes {
		if n != nil {
			nrefs += len(n.Inputs) + len(n.Outputs)
		}
	}
	r.refs = make([]int32, 0, nrefs)
	for i, n := range g.Nodes {
		r.refAt[i] = int32(len(r.refs))
		if n == nil {
			continue
		}
		for _, in := range n.Inputs {
			s := slot(in)
			r.refs = append(r.refs, s)
			if s >= 0 {
				r.cstart[s+1]++
			}
		}
		for _, o := range n.Outputs {
			r.refs = append(r.refs, slot(o))
		}
	}
	r.refAt[len(g.Nodes)] = int32(len(r.refs))
	refs := func(i int) (ins, outs []int32) {
		n := g.Nodes[i]
		all := r.refs[r.refAt[i]:r.refAt[i+1]]
		return all[:len(n.Inputs)], all[len(n.Inputs):]
	}

	// Node pass: names, producer uniqueness, tensor references. A null
	// node is reported here, and the later passes skip it.
	if len(g.Nodes) == 0 && len(g.Outputs) == 0 {
		report(ErrEmptyGraph, "", "", "graph has no nodes and no outputs")
	}
	// unregistered records the producer of each unregistered tensor
	// name, which has no slot.
	var unregistered map[string]string
	var seps []int
	for i, n := range g.Nodes {
		if n == nil {
			report(ErrEmptyNodeName, "", "", "node %d is null", i)
			continue
		}
		if n.Name == "" {
			report(ErrEmptyNodeName, "", "", "node with empty name (%s)", n.OpType)
			continue
		}
		if seps = NameSeps(n.Name, seps[:0]); len(seps) > MaxNameSeps {
			report(ErrNameSeparators, n.Name, "",
				"node %d's name holds %q %d times, more than %d", i, LayerNameSep, len(seps), MaxNameSeps)
		}
		if _, dup := r.nodes[n.Name]; dup {
			report(ErrDuplicateNode, n.Name, "", "duplicate node name %q", n.Name)
		}
		r.nodes[n.Name] = n
		ins, outs := refs(i)
		for k, o := range n.Outputs {
			s := outs[k]
			prev, produced := "", false
			if s >= 0 {
				if p := r.producer[s]; p >= 0 {
					prev, produced = g.Nodes[p].Name, true
				}
				r.producer[s] = int32(i)
			} else {
				if unregistered == nil {
					unregistered = map[string]string{}
				}
				prev, produced = unregistered[o]
				unregistered[o] = n.Name
			}
			if produced {
				report(ErrMultiProducer, n.Name, o,
					"tensor %q produced by both %q and %q", o, prev, n.Name)
			}
			if s < 0 {
				report(ErrDanglingTensor, n.Name, o,
					"node %q output tensor %q not registered", n.Name, o)
			}
		}
		for k, in := range n.Inputs {
			if ins[k] < 0 {
				report(ErrDanglingTensor, n.Name, in,
					"node %q input tensor %q not registered", n.Name, in)
			}
		}
	}

	// Graph IO pass.
	for _, in := range g.Inputs {
		if slot(in) < 0 {
			report(ErrDanglingTensor, "", in, "graph input %q not registered", in)
		}
	}
	isOutput := make([]bool, len(names))
	for _, out := range g.Outputs {
		s := slot(out)
		if s < 0 {
			report(ErrDanglingTensor, "", out, "graph output %q not registered", out)
			continue
		}
		isOutput[s] = true
		if r.producer[s] < 0 && !slices.Contains(g.Inputs, out) {
			report(ErrMissingProducer, "", out, "graph output %q has no producer", out)
		}
	}

	// Tensor sanity pass.
	for s, key := range names {
		t := r.tensors[s]
		if t == nil {
			report(ErrBadTensor, "", key, "tensor %q registered as nil", key)
			continue
		}
		if t.Name != key {
			report(ErrBadTensor, "", key,
				"tensor registered under %q carries name %q", key, t.Name)
		}
		if t.Shape != nil {
			for _, d := range t.Shape {
				if d <= 0 {
					report(ErrBadTensor, "", key,
						"tensor %q has non-positive dimension in shape %v", key, t.Shape)
					break
				}
			}
		}
		if t.overflows() {
			report(ErrBadTensor, "", key,
				"tensor %q of shape %v has more elements or bytes than int64 holds", key, t.Shape)
		}
		if t.Param {
			if !t.Shape.Valid() {
				report(ErrBadTensor, "", key,
					"parameter tensor %q has no concrete shape (%v)", key, t.Shape)
			}
			if !t.DType.Valid() {
				report(ErrBadTensor, "", key,
					"parameter tensor %q has invalid dtype %v", key, t.DType)
			}
		}
		if e := g.intDataDefect(key, t); e != nil {
			errs = append(errs, e)
		}
	}

	// Unused initializers: params no node consumes and the graph does
	// not output. (Activations may legitimately dangle — builders and
	// optimizers leave unconsumed intermediates — but dead weights
	// inflate the parameter count and the Eq. 1 memory model.) Slots
	// follow names, so the defects come in names' order.
	for s, key := range names {
		if t := r.tensors[s]; t != nil && t.Param && r.cstart[s+1] == 0 && !isOutput[s] {
			report(ErrUnusedParam, "", key,
				"parameter tensor %q is consumed by no node", key)
		}
	}

	// Shape-contradiction pass: element-wise operator semantics pin
	// output ranks to input ranks; declared shapes that disagree can
	// only come from a corrupt file or a buggy builder. Tensors with
	// unknown (nil) shapes are skipped — inference has not run yet.
	for i, n := range g.Nodes {
		if n == nil {
			continue
		}
		ins, outs := refs(i)
		switch {
		case elementwiseUnary[n.OpType]:
			if len(n.Inputs) == 0 || len(n.Outputs) == 0 {
				continue
			}
			in, out := tensor(ins[0]), tensor(outs[0])
			if in == nil || out == nil || in.Shape == nil || out.Shape == nil {
				continue
			}
			if in.Shape.Rank() != out.Shape.Rank() {
				report(ErrShapeContradiction, n.Name, n.Outputs[0],
					"%s node %q: input %v and output %v disagree in rank",
					n.OpType, n.Name, in.Shape, out.Shape)
			}
		case elementwiseBinary[n.OpType]:
			if len(n.Inputs) < 2 || len(n.Outputs) == 0 {
				continue
			}
			a, b := tensor(ins[0]), tensor(ins[1])
			if a == nil || b == nil || a.Shape == nil || b.Shape == nil {
				continue
			}
			bc, err := broadcast(a.Shape, b.Shape)
			if err != nil {
				report(ErrShapeContradiction, n.Name, n.Inputs[0],
					"%s node %q: inputs %v and %v do not broadcast",
					n.OpType, n.Name, a.Shape, b.Shape)
				continue
			}
			if out := tensor(outs[0]); out != nil && out.Shape != nil &&
				out.Shape.Rank() != bc.Rank() {
				report(ErrShapeContradiction, n.Name, n.Outputs[0],
					"%s node %q: output %v contradicts broadcast shape %v",
					n.OpType, n.Name, out.Shape, bc)
			}
		}
	}

	// Acyclicity — only meaningful once every reference resolves;
	// sorting a graph with dangling refs would double-report.
	if len(errs) == 0 {
		r.index(g)
		if len(r.order) != len(g.Nodes) {
			report(ErrCycle, "", "", "cycle detected (%d of %d nodes sorted)", len(r.order), len(g.Nodes))
			r.order = nil
		}
	}
	return errs, r
}

// index fills the consumer lists from the counts in cstart and sorts
// the nodes topologically: among ready nodes, declaration order wins.
// On a cyclic graph the order stops short. It is the one topological
// sort: admission's, and TopoSort's for any graph.
func (r *resolution) index(g *Graph) {
	for s := 1; s < len(r.cstart); s++ {
		r.cstart[s] += r.cstart[s-1]
	}
	r.consumers = make([]int32, r.cstart[len(r.cstart)-1])
	next := make([]int32, len(r.cstart)-1)
	copy(next, r.cstart)
	indeg := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		for _, s := range r.refs[r.refAt[i] : r.refAt[i]+int32(len(n.Inputs))] {
			r.consumers[next[s]] = int32(i)
			next[s]++
			if r.producer[s] >= 0 {
				indeg[i]++
			}
		}
	}
	var ready declHeap
	for i, d := range indeg {
		if d == 0 {
			ready.push(i)
		}
	}
	r.order = make([]int32, 0, len(g.Nodes))
	for len(ready) > 0 {
		i := ready.pop()
		r.order = append(r.order, int32(i))
		for _, s := range r.refs[r.refAt[i]+int32(len(g.Nodes[i].Inputs)) : r.refAt[i+1]] {
			for _, c := range r.consumers[r.cstart[s]:r.cstart[s+1]] {
				indeg[c]--
				if indeg[c] == 0 {
					ready.push(int(c))
				}
			}
		}
	}
}
