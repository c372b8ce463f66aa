package memo

import (
	"crypto/sha256"

	"proof/internal/graph"
)

// ContentKeyByMap is ContentKey as it was first written, numbering
// tensor slots through a name → slot map. Key bytes must never change
// (they seed the simulator's jitter), so the parity test holds
// ContentKey to it.
func ContentKeyByMap(g *graph.Graph, nodes []*graph.Node, kind string) [sha256.Size]byte {
	slots := map[string]int{}
	slot := func(name string) int64 {
		if i, ok := slots[name]; ok {
			return int64(i)
		}
		i := len(slots)
		slots[name] = i
		return int64(i)
	}
	b := appendStr(nil, "proof-unit-v1")
	b = appendStr(b, kind)
	b = appendInt(b, int64(len(nodes)))
	for _, n := range nodes {
		if n == nil {
			b = appendStr(b, "nil-node")
			continue
		}
		b = appendStr(b, n.OpType)
		b = appendAttrs(b, n.Attrs)
		b = appendInt(b, int64(len(n.Inputs)))
		for _, in := range n.Inputs {
			b = appendInt(b, slot(in))
			b = appendTensor(b, tensorByName(g, in))
		}
		b = appendInt(b, int64(len(n.Outputs)))
		for _, out := range n.Outputs {
			b = appendInt(b, slot(out))
			b = appendTensor(b, tensorByName(g, out))
		}
	}
	return sha256.Sum256(b)
}

// tensorByName resolves a tensor by name, as ContentKey did before it
// read tensors by slot; a nil g resolves nothing.
func tensorByName(g *graph.Graph, name string) *graph.Tensor {
	if g == nil {
		return nil
	}
	return g.Tensor(name)
}
