package graph

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
)

// AttrKind identifies the payload type of an Attribute.
type AttrKind int

const (
	// AttrInvalid is the zero value.
	AttrInvalid AttrKind = iota
	// AttrInt holds a single integer.
	AttrInt
	// AttrInts holds an integer list.
	AttrInts
	// AttrFloat holds a single float64.
	AttrFloat
	// AttrString holds a string.
	AttrString
)

// Attribute is a named, typed node attribute, mirroring ONNX node
// attributes (kernel_shape, strides, pads, axis, epsilon, ...). In
// JSON the name is the attribute's key in its node's attrs object.
type Attribute struct {
	Name string   `json:"-"`
	Kind AttrKind `json:"kind"`
	I    int      `json:"i,omitempty"`
	Ints []int    `json:"ints,omitempty"`
	F    float64  `json:"f,omitempty"`
	S    string   `json:"s,omitempty"`
}

// IntAttr builds an integer attribute.
func IntAttr(name string, v int) Attribute { return Attribute{Name: name, Kind: AttrInt, I: v} }

// IntsAttr builds an integer-list attribute.
func IntsAttr(name string, v ...int) Attribute {
	return Attribute{Name: name, Kind: AttrInts, Ints: append([]int{}, v...)}
}

// FloatAttr builds a float attribute.
func FloatAttr(name string, v float64) Attribute { return Attribute{Name: name, Kind: AttrFloat, F: v} }

// StringAttr builds a string attribute.
func StringAttr(name, v string) Attribute { return Attribute{Name: name, Kind: AttrString, S: v} }

// Attrs is a node's attribute list, as ONNX keeps it, sorted by name
// with no name repeated: the JSON decoders, the model builders and the
// ONNX importer build it with MakeAttrs, and its readers encode it in
// list order, so attribute order is never part of a node's content.
type Attrs []Attribute

// MakeAttrs sorts as by name, in place, and returns it; of a repeated
// name it keeps the last, as a map assigned in order would. A list
// already in order is compared, not moved.
func MakeAttrs(as ...Attribute) Attrs {
	slices.SortStableFunc(as, func(x, y Attribute) int { return strings.Compare(x.Name, y.Name) })
	for i := len(as) - 1; i > 0; i-- {
		if as[i-1].Name == as[i].Name {
			as = slices.Delete(as, i-1, i)
		}
	}
	return as
}

// Get returns the named attribute and whether the list holds it.
func (a Attrs) Get(name string) (Attribute, bool) {
	for _, v := range a {
		if v.Name == name {
			return v, true
		}
	}
	return Attribute{}, false
}

// Int returns the named integer attribute or def when absent.
func (a Attrs) Int(name string, def int) int {
	if v, ok := a.Get(name); ok && v.Kind == AttrInt {
		return v.I
	}
	return def
}

// Ints returns the named integer-list attribute or def when absent. The
// returned slice must not be modified.
func (a Attrs) Ints(name string, def []int) []int {
	if v, ok := a.Get(name); ok && v.Kind == AttrInts {
		return v.Ints
	}
	return def
}

// Float returns the named float attribute or def when absent.
func (a Attrs) Float(name string, def float64) float64 {
	if v, ok := a.Get(name); ok && v.Kind == AttrFloat {
		return v.F
	}
	return def
}

// String returns the named string attribute or def when absent.
func (a Attrs) String(name string, def string) string {
	if v, ok := a.Get(name); ok && v.Kind == AttrString {
		return v.S
	}
	return def
}

// Clone deep-copies the attribute list.
func (a Attrs) Clone() Attrs {
	c := slices.Clone(a)
	for i, v := range c {
		if v.Kind == AttrInts {
			c[i].Ints = append([]int{}, v.Ints...)
		}
	}
	return c
}

// MarshalJSON writes the list as the object encoding/json writes for a
// map from each name to its attribute.
func (a Attrs) MarshalJSON() ([]byte, error) {
	if a == nil {
		return []byte("null"), nil
	}
	m := make(map[string]Attribute, len(a))
	for _, v := range a {
		m[v.Name] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads the object form as encoding/json reads a map,
// unknown fields refused, into a sorted list; null makes it nil.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]Attribute
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil || m == nil {
		*a = nil
		return err
	}
	*a = make(Attrs, 0, len(m))
	for name, v := range m {
		v.Name = name
		*a = append(*a, v)
	}
	*a = MakeAttrs(*a...)
	return nil
}
