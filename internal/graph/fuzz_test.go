package graph

import (
	"testing"
)

// fuzzOps is the op vocabulary the fuzzer mutates over; arbitrary
// strings from the corpus also reach the default path.
var fuzzOps = []string{
	"Conv", "ConvTranspose", "MaxPool", "AveragePool", "GlobalAveragePool",
	"MatMul", "Gemm", "Transpose", "Reshape", "Flatten", "Concat", "Split",
	"Slice", "Squeeze", "Unsqueeze", "Gather", "Shape", "Expand", "Pad",
	"ReduceMean", "Einsum", "TopK", "Resize", "Where", "ConstantOfShape",
	"Tile", "Add", "Mul", "Softmax", "Relu", "NotAnOp",
}

// FuzzShapeInfer hardens shape inference against adversarial graphs:
// arbitrary (including zero, negative, huge) dimensions, kernel and
// stride attributes, axes and permutations must either infer or return
// an error — never panic, never hang. This is the boundary that
// user-supplied model files (-model-file) reach after decoding.
func FuzzShapeInfer(f *testing.F) {
	f.Add("Conv", 1, 3, 224, 224, 8, 3, 3, 2, 1, 0, int64(64))
	f.Add("MatMul", 4, 16, 32, 64, 0, 0, 0, 1, 1, -1, int64(8))
	f.Add("Reshape", 2, 8, 4, 4, 0, 0, 0, 1, 0, 0, int64(-1))
	f.Add("Transpose", 1, 2, 3, 4, 0, 3, 1, 2, 0, 2, int64(0))
	f.Add("Concat", -1, 0, 7, 1<<30, 9, -3, 5, 0, -2, 63, int64(1)<<40)
	f.Add("Gather", 3, 5, 7, 11, 1, 0, 0, 1, 1, 2, int64(4))

	f.Fuzz(func(t *testing.T, op string, d0, d1, d2, d3, dw, k0, k1, s0, s1, axis int, reshapeDim int64) {
		if pick := axis; pick >= 0 && pick < len(fuzzOps) && op == "" {
			op = fuzzOps[pick]
		}
		g := New("fuzz")
		g.AddTensor(&Tensor{Name: "in", DType: Float32, Shape: Shape{d0, d1, d2, d3}})
		g.AddTensor(&Tensor{Name: "in2", DType: Float32, Shape: Shape{d0, d1, d2, d3}})
		g.Inputs = []string{"in", "in2"}
		// A Conv/Gemm-style weight, with fuzzed output channels and
		// kernel extents.
		g.AddTensor(&Tensor{Name: "w", DType: Float32, Shape: Shape{dw, d1, k0, k1}, Param: true})
		// A small integer tensor driving Reshape/Expand/Tile/Gather
		// value propagation.
		g.AddTensor(&Tensor{
			Name: "shape", DType: Int64, Shape: Shape{2}, Param: true,
			IntData: []int64{reshapeDim, int64(d1)},
		})
		g.AddTensor(&Tensor{Name: "mid"})
		g.AddTensor(&Tensor{Name: "out"})

		attrs := MakeAttrs(
			IntsAttr("kernel_shape", k0, k1),
			IntsAttr("strides", s0, s1),
			IntsAttr("pads", axis, k0, s1, d3%5),
			IntAttr("axis", axis),
			IntsAttr("perm", k0, s0, axis, d0%7),
			IntAttr("group", s1),
			StringAttr("equation", op),
		)
		g.AddNode(&Node{Name: "n0", OpType: op, Inputs: []string{"in", "w", "shape"}, Outputs: []string{"mid"}, Attrs: attrs})
		// A second node consumes the first's output so inferred values
		// propagate one hop further.
		g.AddNode(&Node{Name: "n1", OpType: "Add", Inputs: []string{"mid", "in2"}, Outputs: []string{"out"}})
		g.Outputs = []string{"out"}

		// Either outcome is fine; panicking (or crashing on a Size()
		// of an uninferred dtype downstream) is not.
		if err := g.InferShapes(); err != nil {
			return
		}
		// When inference succeeds, every claimed-inferred output shape
		// must be internally consistent enough to compute a byte size.
		for _, name := range []string{"mid", "out"} {
			if tns := g.Tensor(name); tns != nil && tns.Shape != nil && tns.DType.Valid() {
				_ = tns.Bytes()
			}
		}
	})
}

// FuzzInferShapesRerun checks the documented re-run property: running
// inference twice (as a batch change does) must be stable and must not
// panic, whatever the first run left behind.
func FuzzInferShapesRerun(f *testing.F) {
	f.Add(1, 3, 8, 8, 4)
	f.Add(2, -1, 0, 16, 1<<20)
	f.Fuzz(func(t *testing.T, d0, d1, d2, d3, batch int) {
		g := New("rerun")
		g.AddTensor(&Tensor{Name: "in", DType: Float32, Shape: Shape{d0, d1, d2, d3}})
		g.Inputs = []string{"in"}
		g.AddTensor(&Tensor{Name: "out"})
		g.AddNode(&Node{Name: "gap", OpType: "GlobalAveragePool", Inputs: []string{"in"}, Outputs: []string{"out"}})
		g.Outputs = []string{"out"}
		if err := g.InferShapes(); err != nil {
			return
		}
		first := g.Tensor("out").Shape.Clone()
		// Rebatch and infer again, then restore: the original shapes
		// must come back exactly.
		g.Tensor("in").Shape = Shape{batch, d1, d2, d3}
		_ = g.InferShapes()
		g.Tensor("in").Shape = Shape{d0, d1, d2, d3}
		if err := g.InferShapes(); err != nil {
			t.Fatalf("re-run of an inferable graph failed: %v", err)
		}
		if !g.Tensor("out").Shape.Equal(first) {
			t.Fatalf("re-run drifted: %v -> %v", first, g.Tensor("out").Shape)
		}
	})
}
