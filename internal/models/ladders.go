package models

import (
	"fmt"

	"proof/internal/graph"
)

// Ladder builders for the characterization protocol
// (internal/hardware/characterize). Like BuildPeakTest, each ladder is
// a set of *parallel* operators — independent inputs and outputs, so
// no backend fuses rungs together and works map 1:1 to rungs. Rung
// sizes are parameterized (the protocol sizes them per platform) and
// deliberately all distinct: the simulator keys its deterministic
// jitter on layer content, so distinct shapes give independent jitter
// draws that the protocol averages out.

// BuildMatMulLadder constructs parallel square MatMuls of the given
// sizes: rung n computes (1,n,n) x (n,n), i.e. 2n^3 FLOP.
func BuildMatMulLadder(name string, ns []int) (*graph.Graph, error) {
	if len(ns) == 0 {
		return nil, fmt.Errorf("models: matmul ladder needs at least one size")
	}
	b := NewBuilder(name)
	var outs []string
	for _, n := range ns {
		if n <= 0 {
			return nil, fmt.Errorf("models: invalid matmul ladder size %d", n)
		}
		rung := fmt.Sprintf("mm_%d", n)
		x := b.Input(rung+"_in", graph.Float32, 1, n, n)
		w := b.Param(rung+"_w", n, n)
		outs = append(outs, b.MatMul(x, w, rung))
	}
	b.MarkOutput(outs...)
	return b.Finish()
}

// BuildCopyLadder constructs parallel contiguous copies (Cast reformat
// ops, as in the peak test): rung m moves m MiElem through DRAM (one
// read + one write).
func BuildCopyLadder(name string, elemsMi []int) (*graph.Graph, error) {
	if len(elemsMi) == 0 {
		return nil, fmt.Errorf("models: copy ladder needs at least one size")
	}
	b := NewBuilder(name)
	var outs []string
	for _, m := range elemsMi {
		if m <= 0 {
			return nil, fmt.Errorf("models: invalid copy ladder size %d", m)
		}
		rung := fmt.Sprintf("copy_%dM", m)
		x := b.Input(rung+"_in", graph.Float32, 1, m*1024, 1024)
		outs = append(outs, b.op1("Cast", rung, []string{x}, graph.Attrs{graph.StringAttr("to", "fp32")}))
	}
	b.MarkOutput(outs...)
	return b.Finish()
}
