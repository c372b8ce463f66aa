// Package graph provides the tensor-graph intermediate representation used
// throughout PRoof. It mirrors the information content of an ONNX graph:
// typed nodes with attributes, named tensors with shapes and data types,
// graph inputs/outputs, and parameter (initializer) tensors. It also
// provides ONNX-style shape inference so that model builders only need to
// declare graph inputs and parameter shapes.
package graph

import (
	"fmt"
	"math/bits"
)

// DataType enumerates the tensor element types PRoof models. The set
// matches the types that appear in DNN inference deployments (Table 2 of
// the paper uses fp32/fp16/int8 depending on platform).
type DataType int

const (
	// DTypeInvalid is the zero value and marks an unset data type.
	DTypeInvalid DataType = iota
	// Float32 is IEEE-754 single precision.
	Float32
	// Float16 is IEEE-754 half precision.
	Float16
	// BFloat16 is bfloat16.
	BFloat16
	// Int8 is a signed 8-bit integer (quantized inference).
	Int8
	// Int32 is a signed 32-bit integer.
	Int32
	// Int64 is a signed 64-bit integer (shape/index tensors in ONNX).
	Int64
	// Bool is a boolean element.
	Bool
)

// dtypes holds each data type's name and element size in bytes,
// indexed by the type; DTypeInvalid has no size.
var dtypes = [...]struct {
	name string
	size int
}{
	DTypeInvalid: {"invalid", 0},
	Float32:      {"fp32", 4},
	Float16:      {"fp16", 2},
	BFloat16:     {"bf16", 2},
	Int8:         {"int8", 1},
	Int32:        {"int32", 4},
	Int64:        {"int64", 8},
	Bool:         {"bool", 1},
}

// String returns the short lower-case name of the data type (e.g. "fp16").
func (d DataType) String() string {
	if d >= 0 && int(d) < len(dtypes) {
		return dtypes[d].name
	}
	return fmt.Sprintf("DataType(%d)", int(d))
}

// Size returns the size of one element in bytes. It panics for
// DTypeInvalid, which indicates a bug in shape/type inference.
func (d DataType) Size() int {
	if !d.Valid() {
		panic(fmt.Sprintf("graph: Size of %v", d))
	}
	return dtypes[d].size
}

// Valid reports whether d is a concrete data type.
func (d DataType) Valid() bool {
	return d > DTypeInvalid && int(d) < len(dtypes)
}

// ParseDataType converts a name as produced by DataType.String back into a
// DataType. It accepts a few common aliases ("float32", "half").
func ParseDataType(s string) (DataType, error) {
	switch s {
	case "fp32", "float32", "float":
		return Float32, nil
	case "fp16", "float16", "half":
		return Float16, nil
	case "bf16", "bfloat16":
		return BFloat16, nil
	case "int8":
		return Int8, nil
	case "int32":
		return Int32, nil
	case "int64":
		return Int64, nil
	case "bool":
		return Bool, nil
	}
	return DTypeInvalid, fmt.Errorf("graph: unknown data type %q", s)
}

// Shape is a tensor shape. A nil Shape means "unknown"; an empty non-nil
// shape is a scalar. Dimensions are always concrete (no symbolic dims);
// batch-size changes are handled by re-running shape inference with a
// different graph input shape.
type Shape []int

// NumElements returns the total element count, or 0 for an unknown shape.
// A scalar has one element. A count int64 cannot hold, or a negative
// dimension, reads as -1 (see MulCount): Admit and InferShapes refuse a
// tensor whose count or size overflows.
func (s Shape) NumElements() int64 {
	if s == nil {
		return 0
	}
	// Every dimension is below 2^w, w the bit length of their OR, so
	// the product of r of them is below 2^(w*r) and exact while w*r is
	// at most 63. Only a shape past that, or with a negative dimension,
	// is counted through MulCount.
	n, or := int64(1), 0
	for _, d := range s {
		n *= int64(d)
		or |= d
	}
	if bits.Len64(uint64(or))*len(s) > 63 {
		return s.checkedCount()
	}
	return n
}

// checkedCount is NumElements through MulCount.
func (s Shape) checkedCount() int64 {
	n := int64(1)
	for _, d := range s {
		n = MulCount(n, int64(d))
	}
	return n
}

// MulCount returns a*b for non-negative a and b, or -1 when either is
// negative or the product overflows int64. Element counts, byte counts
// and cost figures are never negative, so -1 marks one that overflowed,
// and MulCount and AddCount pass it on: every product and sum of such
// figures goes through them, and a negative result is an overflow.
func MulCount(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi|lo>>63|uint64(a|b)>>63 != 0 {
		return -1
	}
	return int64(lo)
}

// AddCount returns a+b for non-negative a and b, or -1 when either is
// negative or the sum overflows int64 (see MulCount): two values below
// 2^63 sum below 2^64, so an overflow wraps negative.
func AddCount(a, b int64) int64 {
	if s := a + b; a|b|s >= 0 {
		return s
	}
	return -1
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	if s == nil {
		return nil
	}
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String formats the shape like "[1 3 224 224]".
func (s Shape) String() string {
	if s == nil {
		return "[?]"
	}
	return fmt.Sprintf("%v", []int(s))
}

// Valid reports whether the shape is known and all dimensions are
// positive.
func (s Shape) Valid() bool {
	if s == nil {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}
