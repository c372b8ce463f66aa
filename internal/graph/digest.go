package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest fingerprints the graph's full content — its name, every node
// with every attribute field (including fields the attribute's Kind
// does not read), every tensor and both IO lists — as the SHA-256 of
// one buffer of length-framed fields, in hex. Two graphs whose JSON
// forms differ get different digests, except that a nil and an empty
// list or map, which no reader tells apart, hash alike; an unknown
// (nil) shape and a scalar ([]) shape still differ. Nil nodes and
// tensors are hashed, not dereferenced. Attributes are hashed in list
// order, which every producer sorts by name (MakeAttrs), so the order
// they came in is not content. An admitted graph returns the digest it
// was admitted with, so a graph admitted before shape inference keeps
// the digest of its content as posted.
func (g *Graph) Digest() string {
	if g.Admitted() {
		return g.adm.digest
	}
	names := g.SortedTensorNames()
	ts := make([]*Tensor, len(names))
	for i, name := range names {
		ts[i] = g.Tensor(name)
	}
	return g.digest(names, ts)
}

// digest is Digest over the graph's tensor names, sorted, and the
// tensors registered under them.
func (g *Graph) digest(names []string, ts []*Tensor) string {
	b := make([]byte, 0, 64*(len(g.Nodes)+len(names)))
	b = appendStr(b, "proof-graph-v1")
	b = appendStr(b, g.Name)
	b = binary.AppendUvarint(b, uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		b = appendNode(b, n)
	}
	b = binary.AppendUvarint(b, uint64(len(names)))
	for i, name := range names {
		b = appendStr(b, name)
		b = appendTensor(b, ts[i])
	}
	b = appendStrs(b, g.Inputs)
	b = appendStrs(b, g.Outputs)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendStr frames s with its length, so adjacent fields cannot be
// re-split into a colliding encoding.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendFlag(b []byte, set bool) []byte {
	if set {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendNode(b []byte, n *Node) []byte {
	b = appendFlag(b, n != nil)
	if n == nil {
		return b
	}
	b = appendStr(b, n.Name)
	b = appendStr(b, n.OpType)
	b = appendStrs(b, n.Inputs)
	b = appendStrs(b, n.Outputs)
	b = binary.AppendUvarint(b, uint64(len(n.Attrs)))
	for _, a := range n.Attrs {
		b = appendStr(b, a.Name)
		b = binary.AppendVarint(b, int64(a.Kind))
		b = binary.AppendVarint(b, int64(a.I))
		b = appendInts(b, a.Ints)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.F))
		b = appendStr(b, a.S)
	}
	return b
}

func appendTensor(b []byte, t *Tensor) []byte {
	b = appendFlag(b, t != nil)
	if t == nil {
		return b
	}
	b = appendStr(b, t.Name)
	b = binary.AppendVarint(b, int64(t.DType))
	b = appendFlag(b, t.Shape != nil)
	b = appendInts(b, t.Shape)
	b = appendFlag(b, t.Param)
	b = binary.AppendUvarint(b, uint64(len(t.IntData)))
	for _, v := range t.IntData {
		b = binary.AppendVarint(b, v)
	}
	return b
}
