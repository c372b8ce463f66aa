package graph

// Inference performs incremental shape inference: model builders append
// nodes one at a time and immediately learn output shapes, avoiding a
// full-graph re-inference per node. Constant integer values (IntData)
// are seeded lazily from input tensors.
type Inference struct {
	ctx *inferCtx
}

// NewIncrementalInference creates an incremental inference context for g,
// a raw graph under construction.
func NewIncrementalInference(g *Graph) *Inference {
	return &Inference{ctx: &inferCtx{g: g, byName: map[string][]int64{}}}
}

// InferNode infers the output shapes of a single node whose inputs must
// already have known shapes.
func (inf *Inference) InferNode(n *Node) error {
	for _, in := range n.Inputs {
		if _, ok := inf.ctx.byName[in]; ok {
			continue
		}
		if t := inf.ctx.g.Tensor(in); t != nil && t.IntData != nil {
			inf.ctx.byName[in] = t.IntData
		}
	}
	return inf.ctx.inferNode(n)
}
