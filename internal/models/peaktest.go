package models

import (
	"fmt"

	"proof/internal/graph"
)

// BuildPeakTest constructs the assembled pseudo ONNX model of §4.6
// (Table 6): a series of MatMul operators of different sizes to reach
// the compute roofline, and memory-copy operators (transposes) of
// different sizes to reach the bandwidth roofline. Running it through a
// backend and taking the best achieved FLOP/s and bandwidth measures
// the platform's *achievable* roofline, as opposed to the theoretical
// datasheet peak.
func BuildPeakTest() (*graph.Graph, error) {
	b := NewBuilder("peak-test")
	var outs []string

	// Compute-bound MatMuls: square GEMMs from 512 to 8192.
	for _, n := range []int{512, 1024, 2048, 4096, 8192} {
		name := fmt.Sprintf("matmul_%d", n)
		x := b.Input(name+"_in", graph.Float32, 1, n, n)
		w := b.Param(name+"_w", n, n)
		y := b.MatMul(x, w, name)
		outs = append(outs, y)
	}

	// Memory-bound contiguous copies (Cast reformat ops) of 16 MElem
	// to 256 MElem.
	for _, m := range []int{16, 64, 256} {
		name := fmt.Sprintf("memcopy_%dM", m)
		rows := m * 1024
		x := b.Input(name+"_in", graph.Float32, 1, rows, 1024)
		y := b.op1("Cast", name, []string{x}, graph.Attrs{graph.StringAttr("to", "fp32")})
		outs = append(outs, y)
	}

	b.MarkOutput(outs...)
	return b.Finish()
}
