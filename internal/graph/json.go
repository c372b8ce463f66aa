package graph

import (
	"strings"

	"proof/internal/jsonread"
)

// The members of each object in a graph's JSON form, in field order:
// the json tags of Graph, Node, Tensor and Attribute, which
// TestJSONFieldsMirrorTags holds them to.
var (
	graphFields  = jsonread.Fields{"name", "nodes", "tensors", "inputs", "outputs"}
	nodeFields   = jsonread.Fields{"name", "op_type", "inputs", "outputs", "attrs"}
	tensorFields = jsonread.Fields{"name", "dtype", "shape", "param", "int_data"}
	attrFields   = jsonread.Fields{"kind", "i", "ints", "f", "s"}
)

// What a graph's JSON form spends per decoded item, from the zoo's 23
// graphs posted inline: 257–391 bytes of JSON per node, 185–243 per
// tensor, 102–131 per IO name and 36–84 per shape or attribute int,
// and strings (a tensor's name given once) are 0.30–0.44 of the bytes.
// An array's first chunk counts items at the top of the range, so it
// is never larger than a zoo graph needs, and what it lacks comes in
// quarter chunks. The tensor map and the node list grow by doubling
// instead, so their counts take the bottom of the range. Int data has
// no such figure (one zoo graph carries any), so its array is not
// sized from the input: it starts at 4 elements, and a run that
// outgrows it moves to one twice its length.
//
// Attributes take 139–280 body bytes each in the CNNs and 442–988 in
// the other zoo graphs, so a first chunk counted at the top would hold
// a seventh of a MobileNet body's. Of 140, 200 and 300 bytes, 200 took
// the fewest objects on the six inline bodies: 25–28 per decode and
// 45.5–131.0 KB (TestDecodeProfileRequestBytes), against 25–27 and
// 48.2–142.0 KB at 140 and 27–31 and 45.2–130.5 KB at 300.
const (
	bytesPerNode      = 391
	bytesPerNodeLow   = 257
	bytesPerTensor    = 243
	bytesPerTensorLow = 185
	bytesPerName      = 131
	bytesPerInt       = 84
	bytesPerAttr      = 200
	textShare         = 0.45
)

// ReadJSON reads a graph in the JSON form its struct tags define, in
// one pass, and returns what encoding/json would decode into a *Graph
// with unknown fields disallowed: nil for null, nil and empty slices
// and maps kept apart, null elements left zero. It refuses what
// jsonread refuses on top of that: a repeated field or map key. The
// graph is neither defaulted nor verified; see Admit.
//
// The graph is read into a few arrays, most sized from the remaining
// input, not into one object per value. Every string but the graph's
// Name is a substring of one text that holds the graph's strings, a
// tensor's name its map key's; every node and tensor is an element of
// one array of its kind, and every IO list, attribute list (sorted by
// name, MakeAttrs), shape, attribute ints and int data a capped run
// (s[i:j:j]) of one array of its kind, so an append to one list never
// writes another's. Name is a string of its own: it outlives the graph
// in traces and history records, which should not keep the whole text
// alive. None of it aliases the input.
//
// An array that fills up is followed by one a quarter of its first
// size, and a list that outgrows the array it began in moves to one
// twice its length, so what one input makes ReadJSON allocate stays a
// fixed multiple of its length: each element takes at least two input
// bytes and no more than 152 bytes of arrays (a node and its pointer),
// every first array is at most a fixed fraction of the input or four
// elements, and a moved list at most doubles what its elements take.
func ReadJSON(r *jsonread.Reader) *Graph {
	if !r.Object() {
		return nil
	}
	size := r.Remaining()
	d := &decoder{
		r:       r,
		size:    size,
		nodes:   chunks[Node]{next: size / bytesPerNode},
		tensors: chunks[Tensor]{next: size / bytesPerTensor},
		names:   chunks[string]{next: size / bytesPerName},
		ints:    chunks[int]{next: size / bytesPerInt},
		attrs:   chunks[Attribute]{next: size / bytesPerAttr},
		keys:    map[string]bool{},
	}
	d.text.Grow(int(float64(size) * textShare))
	g := &Graph{}
	var seen uint64
	for f := r.Field(graphFields, &seen); f >= 0; f = r.Field(graphFields, &seen) {
		switch f {
		case 0:
			g.Name = r.String()
		case 1:
			g.Nodes = d.nodeList()
		case 2:
			g.Tensors = d.tensorMap()
		case 3:
			g.Inputs = d.nameList()
		case 4:
			g.Outputs = d.nameList()
		}
	}
	return g
}

// decoder holds the arrays and the text one graph is read into.
type decoder struct {
	r *jsonread.Reader
	// size is the input remaining when the graph began.
	size    int
	text    strings.Builder
	nodes   chunks[Node]
	tensors chunks[Tensor]
	names   chunks[string]
	ints    chunks[int]
	int64s  chunks[int64]
	attrs   chunks[Attribute]
	keys    map[string]bool // the keys of the attrs object being read
}

// chunks hands out elements and capped runs of one array of T. When
// the array is full the next one is next elements long, and at least
// four: the first size, then a quarter of it. A run that outgrows its
// array moves to one at least twice its length, so a long list grows
// geometrically.
// One run of a kind is filled at a time: no list in the schema holds
// a list of its own kind.
type chunks[T any] struct {
	buf  []T
	next int
}

// one returns a new zero element.
func (c *chunks[T]) one() *T {
	c.room(len(c.buf))
	c.buf = c.buf[:len(c.buf)+1]
	return &c.buf[len(c.buf)-1]
}

// room makes room for one more element after the run that begins at
// start, moving the run to a new array when the current one is full,
// and returns where the run begins.
func (c *chunks[T]) room(start int) int {
	if len(c.buf) < cap(c.buf) {
		return start
	}
	run := c.buf[start:]
	buf := make([]T, len(run), max(c.next, 2*len(run), 4))
	copy(buf, run)
	if c.buf == nil {
		c.next /= 4
	}
	c.buf = buf
	return 0
}

// run returns the run that begins at start, capped, and non-nil even
// when it is empty.
func (c *chunks[T]) run(start int) []T {
	if s := c.buf[start:len(c.buf):len(c.buf)]; s != nil {
		return s
	}
	return []T{}
}

func (d *decoder) nodeList() []*Node {
	r := d.r
	if !r.Array() {
		return nil
	}
	nodes := make([]*Node, 0, d.size/bytesPerNodeLow)
	for n := 0; r.Elem(n); n++ {
		nodes = append(nodes, d.node())
	}
	return nodes
}

func (d *decoder) nameList() []string {
	r := d.r
	if !r.Array() {
		return nil
	}
	c := &d.names
	at := len(c.buf)
	for n := 0; r.Elem(n); n++ {
		at = c.room(at)
		c.buf = append(c.buf, r.AppendString(&d.text, ""))
	}
	return c.run(at)
}

func (d *decoder) intList() []int {
	r := d.r
	if !r.Array() {
		return nil
	}
	c := &d.ints
	at := len(c.buf)
	for n := 0; r.Elem(n); n++ {
		at = c.room(at)
		c.buf = append(c.buf, r.Int())
	}
	return c.run(at)
}

func (d *decoder) int64List() []int64 {
	r := d.r
	if !r.Array() {
		return nil
	}
	c := &d.int64s
	at := len(c.buf)
	for n := 0; r.Elem(n); n++ {
		at = c.room(at)
		c.buf = append(c.buf, r.Int64())
	}
	return c.run(at)
}

func (d *decoder) node() *Node {
	r := d.r
	if !r.Object() {
		return nil
	}
	n := d.nodes.one()
	var seen uint64
	for f := r.Field(nodeFields, &seen); f >= 0; f = r.Field(nodeFields, &seen) {
		switch f {
		case 0:
			n.Name = r.AppendString(&d.text, "")
		case 1:
			n.OpType = r.AppendString(&d.text, "")
		case 2:
			n.Inputs = d.nameList()
		case 3:
			n.Outputs = d.nameList()
		case 4:
			n.Attrs = d.attrList()
		}
	}
	return n
}

func (d *decoder) tensorMap() map[string]*Tensor {
	r := d.r
	if !r.Object() {
		return nil
	}
	m := make(map[string]*Tensor, d.size/bytesPerTensorLow)
	for n := 0; ; n++ {
		key, ok := jsonread.MapKey(r, m, &d.text, n)
		if !ok {
			return m
		}
		m[key] = d.tensor(key)
	}
}

// tensor reads the tensor stored under key, whose name, when it is the
// key, shares the key's string.
func (d *decoder) tensor(key string) *Tensor {
	r := d.r
	if !r.Object() {
		return nil
	}
	t := d.tensors.one()
	var seen uint64
	for f := r.Field(tensorFields, &seen); f >= 0; f = r.Field(tensorFields, &seen) {
		switch f {
		case 0:
			t.Name = r.AppendString(&d.text, key)
		case 1:
			t.DType = DataType(r.Int())
		case 2:
			t.Shape = d.intList()
		case 3:
			t.Param = r.Bool()
		case 4:
			t.IntData = d.int64List()
		}
	}
	return t
}

// attrList reads a node's attrs object into a run of the attribute
// array, sorted by name. The keys of the object being read are kept in
// one set per decoder, so a repeated key is refused as a map's is.
func (d *decoder) attrList() Attrs {
	r := d.r
	if !r.Object() {
		return nil
	}
	clear(d.keys)
	c := &d.attrs
	at := len(c.buf)
	for n := 0; ; n++ {
		key, ok := jsonread.MapKey(r, d.keys, &d.text, n)
		if !ok {
			return MakeAttrs(c.run(at)...)
		}
		d.keys[key] = true
		at = c.room(at)
		c.buf = append(c.buf, Attribute{Name: key})
		d.attr(&c.buf[len(c.buf)-1])
	}
}

// attr reads an attribute's members into a.
func (d *decoder) attr(a *Attribute) {
	r := d.r
	if !r.Object() {
		return
	}
	var seen uint64
	for f := r.Field(attrFields, &seen); f >= 0; f = r.Field(attrFields, &seen) {
		switch f {
		case 0:
			a.Kind = AttrKind(r.Int())
		case 1:
			a.I = r.Int()
		case 2:
			a.Ints = d.intList()
		case 3:
			a.F = r.Float64()
		case 4:
			a.S = r.AppendString(&d.text, "")
		}
	}
}
