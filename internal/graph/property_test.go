package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomDAG builds a random layered DAG of Relu/Add nodes (plus
// Constant-free structure) from a seed, returning a valid graph.
func randomDAG(seed int64, maxNodes int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New("random")
	g.AddTensor(&Tensor{Name: "in0", DType: Float32, Shape: Shape{1, 4}})
	g.Inputs = []string{"in0"}
	available := []string{"in0"}
	n := 1 + rng.Intn(maxNodes)
	for i := 0; i < n; i++ {
		out := Tensorf(g, i)
		if rng.Intn(2) == 0 || len(available) < 2 {
			src := available[rng.Intn(len(available))]
			g.AddNode(&Node{
				Name: nodef(i), OpType: "Relu",
				Inputs: []string{src}, Outputs: []string{out},
			})
		} else {
			a := available[rng.Intn(len(available))]
			b := available[rng.Intn(len(available))]
			g.AddNode(&Node{
				Name: nodef(i), OpType: "Add",
				Inputs: []string{a, b}, Outputs: []string{out},
			})
		}
		available = append(available, out)
	}
	g.Outputs = []string{available[len(available)-1]}
	return g
}

// Tensorf registers a fresh tensor t<i> and returns its name.
func Tensorf(g *Graph, i int) string {
	name := "t" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+(i/260)%10))
	g.AddTensor(&Tensor{Name: name, DType: Float32})
	return name
}

func nodef(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+(i/260)%10))
}

// TestTopoSortRespectsEdges: for random DAGs, every node appears after
// all producers of its inputs.
func TestTopoSortRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 40)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, n := range order {
			pos[n.Name] = i
		}
		for _, n := range g.Nodes {
			for _, in := range n.Inputs {
				if p := g.Producer(in); p != nil && pos[p.Name] >= pos[n.Name] {
					return false
				}
			}
		}
		return len(order) == len(g.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTopoSortPrefersDeclarationOrder: among independent chains, the
// first-declared node comes first (program-order stability, which the
// fusion passes rely on).
func TestTopoSortPrefersDeclarationOrder(t *testing.T) {
	g := New("stable")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1}})
	g.AddTensor(&Tensor{Name: "a", DType: Float32})
	g.AddTensor(&Tensor{Name: "b", DType: Float32})
	g.Inputs = []string{"x"}
	g.AddNode(&Node{Name: "first", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"a"}})
	g.AddNode(&Node{Name: "second", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"b"}})
	g.Outputs = []string{"a", "b"}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0].Name != "first" || order[1].Name != "second" {
		t.Errorf("order = %v", order)
	}
}

// TestTopoSortConstantsStayLocal: Constant nodes declared next to their
// consumer must not float to the front of the order.
func TestTopoSortConstantsStayLocal(t *testing.T) {
	g := New("const-local")
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 4}})
	g.AddTensor(&Tensor{Name: "a", DType: Float32})
	g.AddTensor(&Tensor{Name: "c", DType: Int64})
	g.AddTensor(&Tensor{Name: "y", DType: Float32})
	g.Inputs = []string{"x"}
	g.AddNode(&Node{Name: "relu", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"a"}})
	g.AddNode(&Node{Name: "konst", OpType: "Constant", Outputs: []string{"c"},
		Attrs: Attrs{IntsAttr("value_ints", 1, 4)}})
	g.AddNode(&Node{Name: "reshape", OpType: "Reshape", Inputs: []string{"a", "c"}, Outputs: []string{"y"}})
	g.Outputs = []string{"y"}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0].Name != "relu" {
		t.Errorf("Constant floated to front: %v", order)
	}
}

// TestCloneIsDeepAndEquivalent: a clone marshals to identical JSON and
// shares no mutable state.
func TestCloneIsDeepAndEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 20)
		c := g.Clone()
		j1, err1 := json.Marshal(g)
		j2, err2 := json.Marshal(c)
		if err1 != nil || err2 != nil || string(j1) != string(j2) {
			return false
		}
		// Mutating the clone leaves the original untouched.
		if len(c.Nodes) > 0 {
			c.Nodes[0].OpType = "Mutated"
		}
		return g.Nodes[0].OpType != "Mutated"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestValidateRandomDAGs: every generated DAG validates, and reversing
// an edge into a cycle is caught.
func TestValidateRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 30)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInferShapesIdempotent: re-running inference never changes shapes.
func TestInferShapesIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 25)
		if err := g.InferShapes(); err != nil {
			return false
		}
		snapshot := map[string]string{}
		for name, tens := range g.Tensors {
			snapshot[name] = tens.Shape.String()
		}
		if err := g.InferShapes(); err != nil {
			return false
		}
		for name, tens := range g.Tensors {
			if snapshot[name] != tens.Shape.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestNodeHeapOrdering: TopoSort's ready heap of declaration indices
// pops in ascending order for arbitrary insert sequences, including
// pushes interleaved with pops.
func TestNodeHeapOrdering(t *testing.T) {
	f := func(keys []uint8) bool {
		var h declHeap
		for _, k := range keys {
			h.push(int(k))
		}
		prev := -1
		for len(h) > 0 {
			v := h.pop()
			if v < prev {
				return false
			}
			prev = v
		}
		// Interleaved: every pop returns the minimum still held.
		var held []int
		for i, k := range keys {
			h.push(int(k))
			held = append(held, int(k))
			if i%3 == 2 {
				v := h.pop()
				lo := 0
				for j := range held {
					if held[j] < held[lo] {
						lo = j
					}
				}
				if v != held[lo] {
					return false
				}
				held = append(held[:lo], held[lo+1:]...)
			}
		}
		return len(h) == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// referenceTopoSort is TopoSort's specification, computed the slow way:
// repeatedly emit the lowest-declared node whose produced inputs are
// all emitted, and report a cycle when none is ready.
func referenceTopoSort(g *Graph) ([]*Node, error) {
	producer := map[string]*Node{}
	for _, n := range g.Nodes {
		for _, o := range n.Outputs {
			producer[o] = n
		}
	}
	emitted := map[*Node]bool{}
	var order []*Node
	for len(order) < len(g.Nodes) {
		var next *Node
		for _, n := range g.Nodes {
			if emitted[n] {
				continue
			}
			ready := true
			for _, in := range n.Inputs {
				if p := producer[in]; p != nil && !emitted[p] {
					ready = false
					break
				}
			}
			if ready {
				next = n
				break
			}
		}
		if next == nil {
			return nil, fmt.Errorf("graph %s: cycle detected (%d of %d nodes sorted)", g.Name, len(order), len(g.Nodes))
		}
		emitted[next] = true
		order = append(order, next)
	}
	return order, nil
}

// randomWiredGraph builds a graph of Sum nodes that each produce one
// tensor and read one to three tensors chosen from the graph input and
// every node output, earlier or later: back references make cycles and
// self-loops, repeated picks make a node read one tensor twice. Shapes
// infer on an acyclic one.
func randomWiredGraph(seed int64, maxNodes int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New("wired")
	g.AddTensor(&Tensor{Name: "in0", DType: Float32, Shape: Shape{1, 4}})
	g.Inputs = []string{"in0"}
	n := 1 + rng.Intn(maxNodes)
	names := []string{"in0"}
	for i := 0; i < n; i++ {
		names = append(names, Tensorf(g, i))
	}
	cyclic := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		node := &Node{Name: nodef(i), OpType: "Sum", Outputs: []string{names[i+1]}}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			limit := i + 1 // the graph input or an earlier output
			if cyclic && rng.Intn(8) == 0 {
				limit = len(names)
			}
			node.Inputs = append(node.Inputs, names[rng.Intn(limit)])
		}
		g.AddNode(node)
	}
	// Shuffle declaration order so ready sets hold several nodes.
	rng.Shuffle(len(g.Nodes), func(a, b int) { g.Nodes[a], g.Nodes[b] = g.Nodes[b], g.Nodes[a] })
	return g
}

// TestTopoSortMatchesReference: on random graphs, acyclic or not,
// TopoSort returns exactly the reference order or the reference's
// cycle error.
func TestTopoSortMatchesReference(t *testing.T) {
	cycles := 0
	f := func(seed int64) bool {
		g := randomWiredGraph(seed, 40)
		got, gotErr := g.TopoSort()
		want, wantErr := referenceTopoSort(g)
		if (gotErr == nil) != (wantErr == nil) {
			t.Logf("seed %d: err %v, reference %v", seed, gotErr, wantErr)
			return false
		}
		if wantErr != nil {
			cycles++
			return gotErr.Error() == wantErr.Error()
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: position %d is %s, reference %s", seed, i, got[i].Name, want[i].Name)
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if cycles == 0 {
		t.Error("no generated graph had a cycle; the error path went untested")
	}
}

// TestRawGraphFollowsRewiring: a raw graph's TopoSort, Producer and
// Consumers read the graph as it is now. After InferShapes has run (and
// built whatever it keeps), one node's input is rewired in place to a
// tensor produced earlier in the topological order, so the graph stays
// acyclic and keeps its node count; the three must then agree with the
// reference sort and a fresh scan of the nodes.
func TestRawGraphFollowsRewiring(t *testing.T) {
	rewired := 0
	f := func(seed int64) bool {
		g := randomWiredGraph(seed, 40)
		order, err := referenceTopoSort(g)
		if err != nil {
			return true // cyclic: nothing to keep acyclic
		}
		if err := g.InferShapes(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(len(order))
		n := order[p]
		src := "in0"
		if k := rng.Intn(p + 1); k < p {
			src = order[k].Outputs[0]
		}
		i := rng.Intn(len(n.Inputs))
		if n.Inputs[i] != src {
			rewired++
		}
		n.Inputs[i] = src

		got, gotErr := g.TopoSort()
		want, wantErr := referenceTopoSort(g)
		if gotErr != nil || wantErr != nil || !slices.Equal(got, want) {
			t.Logf("seed %d: TopoSort %v, %v; reference %v, %v", seed, got, gotErr, want, wantErr)
			return false
		}
		for _, name := range append([]string{"in0"}, g.SortedTensorNames()...) {
			var producer *Node
			var consumers []*Node
			for _, m := range g.Nodes {
				if slices.Contains(m.Outputs, name) {
					producer = m
				}
				for _, in := range m.Inputs {
					if in == name {
						consumers = append(consumers, m)
					}
				}
			}
			if g.Producer(name) != producer || !slices.Equal(g.Consumers(name), consumers) {
				t.Logf("seed %d: tensor %s: Producer %v, Consumers %v; scan %v, %v",
					seed, name, g.Producer(name), g.Consumers(name), producer, consumers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if rewired == 0 {
		t.Error("no generated graph was rewired")
	}
}
