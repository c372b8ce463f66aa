// Package memo implements the canonical keys a profiling request and
// its layers rest on, and a memo store of encoded reports.
//
// The store keeps each profiling point's report as its binary encoding,
// keyed by the resolved configuration and bounded by the layer units
// the reports hold. A profsession.Session given one consults it after
// its own report store misses, before any circuit or retry, and puts
// every report it executes there; the pipeline itself keeps nothing.
// Reuse pays only when computing a result costs more than looking it
// up (Dooly): a whole report does, while a simulated layer costs about
// as much to key as to profile, so the store keeps no per-layer
// results (DESIGN.md).
//
// The keys are framed SHA-256 hashes:
//
//   - ContentKey fingerprints a fused layer's content (op types,
//     canonical attributes, input/output shapes and dtypes) and nothing
//     else (node names, tensor names, attribute map order). It seeds
//     the simulator's deterministic jitter, so structurally identical
//     layers behave identically. It and ReformatKey return the SHA-256
//     sum itself: the simulator hashes the sum's hex digits without
//     writing them out, and hex layer keys appear only in tests.
//   - PlanKey covers everything a report depends on: display name,
//     model source and the execution Binding (backend, platform and its
//     descriptor hash, dtype, batch, mode, seed, clocks). The
//     descriptor hash makes an edited platform descriptor structurally
//     miss (the LRU ages stale entries out), and a report served from
//     the store is byte-identical to a fresh run's. It returns the sum
//     in hex, the string the report stores are keyed by.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"proof/internal/graph"
	"proof/internal/hardware"
)

// ContentKey canonically fingerprints the content of one fusion group:
// the ordered op types, attributes, and input/output tensor contents
// (dtype, shape, param flag, constant data) of its nodes, plus the
// group kind the backend lowered it as. Node and tensor *names* are
// deliberately excluded — tensors are identified by first-reference slot
// index — so structurally identical layers from different models produce
// the same key, and with it the same simulated jitter. The encoding
// frames every field with a length or tag, so no concatenation of
// adjacent fields can collide with a different field split. The key is
// the encoding's SHA-256 sum.
func ContentKey(g *graph.Graph, nodes []*graph.Node, kind string) [sha256.Size]byte {
	var refStack [keyStackRefs]*graph.Tensor
	refs := refStack[:0]
	for _, n := range nodes {
		if n == nil {
			continue
		}
		for i := range n.Inputs {
			refs = append(refs, tensorIn(g, n, i))
		}
		for i := range n.Outputs {
			refs = append(refs, tensorOut(g, n, i))
		}
	}
	var slotStack [keyStackRefs]int32
	slots := firstRefSlots(refs, slotStack[:0])
	var stack [keyStackBytes]byte
	b := appendStr(stack[:0], "proof-unit-v1")
	b = appendStr(b, kind)
	b = appendInt(b, int64(len(nodes)))
	ref := 0
	for _, n := range nodes {
		if n == nil {
			b = appendStr(b, "nil-node")
			continue
		}
		b = appendStr(b, n.OpType)
		b = appendAttrs(b, n.Attrs)
		b = appendInt(b, int64(len(n.Inputs)))
		for range n.Inputs {
			b = appendInt(b, int64(slots[ref]))
			b = appendTensor(b, refs[ref])
			ref++
		}
		b = appendInt(b, int64(len(n.Outputs)))
		for range n.Outputs {
			b = appendInt(b, int64(slots[ref]))
			b = appendTensor(b, refs[ref])
			ref++
		}
	}
	return sha256.Sum256(b)
}

// firstRefSlots numbers tensor references by first reference: the i-th
// distinct tensor in refs gets slot i, and every reference to a tensor
// gets that tensor's slot. A graph resolves each name to one tensor, so
// tensors are told apart by identity, with no name compared; unresolved
// references (nil) share one slot. A group that fits the stack arrays
// scans the earlier references; a larger one, which a posted graph can
// make arbitrarily large, keeps a map so numbering stays linear. It
// returns the slots in slots' backing array.
func firstRefSlots(refs []*graph.Tensor, slots []int32) []int32 {
	var seen map[*graph.Tensor]int32
	if len(refs) > keyStackRefs {
		seen = make(map[*graph.Tensor]int32, len(refs))
	}
	next := int32(0)
	for i, t := range refs {
		slot := next
		if seen != nil {
			if s, ok := seen[t]; ok {
				slot = s
			} else {
				seen[t] = next
			}
		} else {
			for j := 0; j < i; j++ {
				if refs[j] == t {
					slot = slots[j]
					break
				}
			}
		}
		if slot == next {
			next++
		}
		slots = append(slots, slot)
	}
	return slots
}

// ReformatKey fingerprints a runtime-inserted reformat/reorder layer,
// whose simulated cost depends only on the converted tensor's dtype and
// shape, as a SHA-256 sum.
func ReformatKey(t *graph.Tensor) [sha256.Size]byte {
	var stack [keyStackBytes]byte
	b := appendStr(stack[:0], "proof-reformat-v1")
	return sha256.Sum256(appendTensor(b, t))
}

// Binding is the execution-environment half of a plan key: the same
// model behaves differently per backend, platform descriptor, data
// type, batch, metrics mode, jitter seed and clock configuration, so
// all of them key the cache.
type Binding struct {
	// Backend is the runtime key ("trtsim", ...).
	Backend string
	// PlatformKey and PlatformHash identify the platform; the
	// descriptor hash makes an edited descriptor structurally miss.
	PlatformKey  string
	PlatformHash string
	// DType, Batch and Mode are the resolved run configuration.
	DType graph.DataType
	Batch int
	Mode  string
	// Seed is the run-to-run jitter seed.
	Seed uint64
	// Clocks is the clock configuration as requested (zero = defaults).
	Clocks hardware.Clocks
	// MeasuredRoofline (peak-test ceilings) is framed only when set, so
	// every key derived without it keeps its encoding.
	MeasuredRoofline bool
}

// PlanKey keys a whole profiling point: source identifies the model
// content (a zoo key for registry models, a graph digest for inline
// graphs), model is the report's display name (it can differ from the
// content source for inline graphs, and reports must echo it), and b is
// the execution binding.
func PlanKey(model, source string, b Binding) string {
	var stack [keyStackBytes]byte
	buf := appendStr(stack[:0], "proof-plan-v1")
	buf = appendStr(buf, model)
	buf = appendStr(buf, source)
	return hexKey(appendBinding(buf, b))
}

// GraphDigest fingerprints a caller-supplied graph's full content, so
// runs over it can be plan-keyed: it is g.Digest() (graph.Graph.Digest),
// framed fields hashed in one buffer, and an admitted graph returns the
// digest it was admitted with. The error is always nil.
func GraphDigest(g *graph.Graph) (string, error) {
	return g.Digest(), nil
}

// Every key is the SHA-256 of one buffer of framed fields. The append
// helpers build that buffer, starting in a keyStackBytes array on the
// caller's stack, and ContentKey numbers a group's tensor references in
// keyStackRefs-long arrays there too, so a key's allocations do not
// grow with its field count: none for a layer key, PlanKey's hex
// string, and growth only for keys longer than the arrays.
const (
	keyStackBytes = 1024
	keyStackRefs  = 128
)

// hexKey hashes the encoded fields and returns the digest in hex, the
// form PlanKey keys reports by.
func hexKey(b []byte) string {
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

func appendBinding(buf []byte, b Binding) []byte {
	buf = appendStr(buf, b.Backend)
	buf = appendStr(buf, b.PlatformKey)
	buf = appendStr(buf, b.PlatformHash)
	buf = appendInt(buf, int64(b.DType))
	buf = appendInt(buf, int64(b.Batch))
	buf = appendStr(buf, b.Mode)
	buf = appendInt(buf, int64(b.Seed))
	buf = appendInt(buf, int64(b.Clocks.GPUMHz))
	buf = appendInt(buf, int64(b.Clocks.EMCMHz))
	buf = appendInt(buf, int64(b.Clocks.CPUMHz))
	buf = appendInt(buf, int64(b.Clocks.CPUClusters))
	buf = appendFloat(buf, b.Clocks.GPUCapacity)
	if b.MeasuredRoofline {
		buf = appendStr(buf, "measured-roofline")
	}
	return buf
}

// tensorIn and tensorOut resolve node n's i-th input and output in g,
// by slot on an admitted graph; a nil g resolves nothing.
func tensorIn(g *graph.Graph, n *graph.Node, i int) *graph.Tensor {
	if g == nil {
		return nil
	}
	return g.In(n, i)
}

func tensorOut(g *graph.Graph, n *graph.Node, i int) *graph.Tensor {
	if g == nil {
		return nil
	}
	return g.Out(n, i)
}

func appendTensor(b []byte, t *graph.Tensor) []byte {
	if t == nil {
		return appendStr(b, "nil-tensor")
	}
	b = appendStr(b, "tensor")
	b = appendInt(b, int64(t.DType))
	b = appendInt(b, int64(len(t.Shape)))
	for _, d := range t.Shape {
		b = appendInt(b, int64(d))
	}
	if t.Param {
		b = appendInt(b, 1)
	} else {
		b = appendInt(b, 0)
	}
	b = appendInt(b, int64(len(t.IntData)))
	for _, v := range t.IntData {
		b = appendInt(b, v)
	}
	return b
}

// appendAttrs encodes an attribute map order-independently by sorting
// the keys; Go map iteration order must never leak into a signature.
func appendAttrs(b []byte, attrs graph.Attrs) []byte {
	var stack [16]string
	keys := stack[:0]
	for k := range attrs {
		keys = append(keys, k)
	}
	// Insertion sort: attr maps hold a handful of keys.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	b = appendInt(b, int64(len(keys)))
	for _, k := range keys {
		a := attrs[k]
		b = appendStr(b, k)
		b = appendInt(b, int64(a.Kind))
		switch a.Kind {
		case graph.AttrInt:
			b = appendInt(b, int64(a.I))
		case graph.AttrInts:
			b = appendInt(b, int64(len(a.Ints)))
			for _, v := range a.Ints {
				b = appendInt(b, int64(v))
			}
		case graph.AttrFloat:
			b = appendFloat(b, a.F)
		case graph.AttrString:
			b = appendStr(b, a.S)
		}
	}
	return b
}

// appendStr frames the string with its length so adjacent fields cannot
// be re-split into a colliding encoding.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
