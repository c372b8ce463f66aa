package graph

import (
	"errors"
	"fmt"
	"sort"
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
	// shape with a non-positive dimension, a parameter without a
	// concrete shape or element type, or constant int data whose
	// length contradicts the shape.
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
	// matches once the batch dimension changes.
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
	errs, _, _ := g.validate()
	return errs
}

// ValidateInputData re-checks the one ValidateAll invariant that
// rebatching a verified graph can break: a graph input's constant int
// data must match its shape. It returns the first bad_tensor defect.
func (g *Graph) ValidateInputData() error {
	for _, in := range g.Inputs {
		if e := g.intDataDefect(in); e != nil {
			return e
		}
	}
	return nil
}

// intDataDefect reports the tensor registered under key when its
// constant int data contradicts its known shape.
func (g *Graph) intDataDefect(key string) *ValidationError {
	t := g.Tensor(key)
	if t == nil || t.IntData == nil || !t.Shape.Valid() || int64(len(t.IntData)) == t.Shape.NumElements() {
		return nil
	}
	return &ValidationError{
		Code: ErrBadTensor, Graph: g.Name, Tensor: key,
		Detail: fmt.Sprintf("tensor %q carries %d int values for shape %v (%d elements)",
			key, len(t.IntData), t.Shape, t.Shape.NumElements()),
	}
}

// validate is ValidateAll returning also the topological order its
// acyclicity check computed (nil when it found a defect) and the
// name → node table its duplicate check built, so Admit sorts and
// indexes the graph once.
func (g *Graph) validate() ([]*ValidationError, []*Node, map[string]*Node) {
	var errs []*ValidationError
	report := func(code ValidationCode, node, tensor, format string, args ...any) {
		errs = append(errs, &ValidationError{
			Code: code, Graph: g.Name, Node: node, Tensor: tensor,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Node pass: names, producer uniqueness, tensor references. A null
	// node is reported here, and the later passes skip it.
	if len(g.Nodes) == 0 && len(g.Outputs) == 0 {
		report(ErrEmptyGraph, "", "", "graph has no nodes and no outputs")
	}
	nodes := make(map[string]*Node, len(g.Nodes))
	produced := make(map[string]string)
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
		if _, dup := nodes[n.Name]; dup {
			report(ErrDuplicateNode, n.Name, "", "duplicate node name %q", n.Name)
		}
		nodes[n.Name] = n
		for _, o := range n.Outputs {
			if prev, ok := produced[o]; ok {
				report(ErrMultiProducer, n.Name, o,
					"tensor %q produced by both %q and %q", o, prev, n.Name)
			}
			produced[o] = n.Name
			if g.Tensor(o) == nil {
				report(ErrDanglingTensor, n.Name, o,
					"node %q output tensor %q not registered", n.Name, o)
			}
		}
		for _, i := range n.Inputs {
			if g.Tensor(i) == nil {
				report(ErrDanglingTensor, n.Name, i,
					"node %q input tensor %q not registered", n.Name, i)
			}
		}
	}

	// Graph IO pass.
	inputs := make(map[string]bool, len(g.Inputs))
	for _, in := range g.Inputs {
		inputs[in] = true
		if g.Tensor(in) == nil {
			report(ErrDanglingTensor, "", in, "graph input %q not registered", in)
		}
	}
	outputs := make(map[string]bool, len(g.Outputs))
	for _, out := range g.Outputs {
		outputs[out] = true
		if g.Tensor(out) == nil {
			report(ErrDanglingTensor, "", out, "graph output %q not registered", out)
			continue
		}
		if produced[out] == "" && !inputs[out] {
			report(ErrMissingProducer, "", out, "graph output %q has no producer", out)
		}
	}

	// Tensor sanity pass.
	g.eachTensor(func(key string, t *Tensor) {
		if t == nil {
			report(ErrBadTensor, "", key, "tensor %q registered as nil", key)
			return
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
		if e := g.intDataDefect(key); e != nil {
			errs = append(errs, e)
		}
	})

	// Unused initializers: params no node consumes and the graph does
	// not output. (Activations may legitimately dangle — builders and
	// optimizers leave unconsumed intermediates — but dead weights
	// inflate ParamBytes and the Eq. 1 memory model.)
	consumed := make(map[string]bool)
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		for _, i := range n.Inputs {
			consumed[i] = true
		}
	}
	var unused []string
	g.eachTensor(func(key string, t *Tensor) {
		if t != nil && t.Param && !consumed[key] && !outputs[key] {
			unused = append(unused, key)
		}
	})
	sort.Strings(unused)
	for _, key := range unused {
		report(ErrUnusedParam, "", key,
			"parameter tensor %q is consumed by no node", key)
	}

	// Shape-contradiction pass: element-wise operator semantics pin
	// output ranks to input ranks; declared shapes that disagree can
	// only come from a corrupt file or a buggy builder. Tensors with
	// unknown (nil) shapes are skipped — inference has not run yet.
	for _, n := range g.Nodes {
		switch {
		case n == nil:
		case elementwiseUnary[n.OpType]:
			if len(n.Inputs) == 0 || len(n.Outputs) == 0 {
				continue
			}
			in, out := g.Tensor(n.Inputs[0]), g.Tensor(n.Outputs[0])
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
			a, b := g.Tensor(n.Inputs[0]), g.Tensor(n.Inputs[1])
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
			if out := g.Tensor(n.Outputs[0]); out != nil && out.Shape != nil &&
				out.Shape.Rank() != bc.Rank() {
				report(ErrShapeContradiction, n.Name, n.Outputs[0],
					"%s node %q: output %v contradicts broadcast shape %v",
					n.OpType, n.Name, out.Shape, bc)
			}
		}
	}

	// Acyclicity — only meaningful once every reference resolves;
	// TopoSort on a graph with dangling refs would double-report.
	var order []*Node
	if len(errs) == 0 {
		var err error
		if order, err = g.TopoSort(); err != nil {
			report(ErrCycle, "", "", "%v", cycleDetail(err, g.Name))
		}
	}
	return errs, order, nodes
}

// cycleDetail strips the "graph <name>: " prefix TopoSort puts on its
// error so the ValidationError formatting does not repeat it.
func cycleDetail(err error, name string) string {
	s := err.Error()
	prefix := fmt.Sprintf("graph %s: ", name)
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):]
	}
	return s
}
