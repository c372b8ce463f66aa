package graph

import (
	"fmt"
	"testing"
)

// TestSpatial2DDefaultsAllocateNothing: a conv or pool node that omits
// its strides, pads and dilations reads the shared defaults, so
// validating its window allocates nothing.
func TestSpatial2DDefaultsAllocateNothing(t *testing.T) {
	n := &Node{Name: "c", OpType: "Conv", Attrs: Attrs{IntsAttr("kernel_shape", 3, 3)}}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, _, _, err = spatial2D(n) }); allocs != 0 {
		t.Errorf("spatial2D of a node without window attributes: %v allocs, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	strides, pads, dil, _ := spatial2D(n)
	if fmt.Sprint(strides, pads, dil) != "[1 1] [0 0 0 0] [1 1]" {
		t.Errorf("defaults = %v %v %v", strides, pads, dil)
	}
}

// convChain builds x -> (Conv -> Relu) x blocks -> y, on 4-D tensors,
// with convolutions that set no window attributes.
func convChain(blocks int) *Graph {
	g := New(fmt.Sprintf("conv-chain-%d", blocks))
	g.AddTensor(&Tensor{Name: "x", DType: Float32, Shape: Shape{1, 8, 16, 16}})
	g.Inputs = []string{"x"}
	prev := "x"
	for i := 0; i < blocks; i++ {
		w, c, r := fmt.Sprintf("w%d", i), fmt.Sprintf("c%d", i), fmt.Sprintf("r%d", i)
		g.AddTensor(&Tensor{Name: w, DType: Float32, Shape: Shape{8, 8, 1, 1}, Param: true})
		g.AddTensor(&Tensor{Name: c, DType: Float32})
		g.AddTensor(&Tensor{Name: r, DType: Float32})
		g.AddNode(&Node{Name: "conv" + c, OpType: "Conv", Inputs: []string{prev, w}, Outputs: []string{c},
			Attrs: Attrs{IntsAttr("kernel_shape", 1, 1)}})
		g.AddNode(&Node{Name: "relu" + r, OpType: "Relu", Inputs: []string{c}, Outputs: []string{r}})
		prev = r
	}
	g.Outputs = []string{prev}
	return g
}

// TestViewInferenceAllocsIndependentOfNodes: a view holds its admitted
// graph's output ranks, so its shape inference carves every shape from
// one array sized up front, and a longer graph costs it no more
// allocations. Each shape is capped: appending to one copies it rather
// than writing into its neighbour.
func TestViewInferenceAllocsIndependentOfNodes(t *testing.T) {
	allocs := map[int]float64{}
	for _, blocks := range []int{2, 64} {
		raw := convChain(blocks)
		if err := raw.InferShapes(); err != nil {
			t.Fatal(err)
		}
		adm, errs := Admit(raw)
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		v := adm.View()
		var err error
		allocs[blocks] = testing.AllocsPerRun(20, func() { err = v.InferShapes() })
		if err != nil {
			t.Fatal(err)
		}
		c0, r0 := v.Tensor("c0").Shape, v.Tensor("r0").Shape
		if len(c0) != cap(c0) {
			t.Fatalf("c0 shape %v has cap %d, want it capped at its rank", c0, cap(c0))
		}
		_ = append(c0, 99)
		if !r0.Equal(Shape{1, 8, 16, 16}) {
			t.Fatalf("appending to c0's shape wrote r0's: %v", r0)
		}
	}
	if allocs[64] != allocs[2] {
		t.Errorf("view inference: %v allocs for 2 blocks, %v for 64, want the same", allocs[2], allocs[64])
	}
}
