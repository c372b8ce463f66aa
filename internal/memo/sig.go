// Package memo implements the redundancy-aware sweep engine's layer-unit
// memo store (ROADMAP item 3). PRoof's hierarchical decomposition means a
// multi-model × multi-platform × batch-grid sweep re-profiles layer units
// that recur verbatim across configurations — Dooly observes that this
// cross-configuration redundancy dominates profiling-driven simulation
// cost. The store caches per-layer profile/roofline results keyed by a
// canonical layer signature and whole-point assembly plans keyed by the
// resolved configuration, so each unique unit is profiled once and every
// later occurrence is assembled from the cache.
//
// Correctness hinges on two properties, both tested differentially:
//
//   - The signature covers everything the simulated execution depends on
//     (op types, canonical attributes, input/output shapes and dtypes,
//     batch, data type, backend, mode, seed, clocks, platform descriptor
//     hash) and nothing it does not (node names, tensor names, attribute
//     map order) — so memoized reports are byte-identical to unmemoized
//     ones, and distinct layers can never collide.
//   - Invalidation is keyed on hardware.Platform.DescriptorHash(): the
//     hash is embedded in every signature and plan key, so an edited
//     platform descriptor changes the key and stale entries are
//     structurally unreachable (the LRU ages them out).
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"

	"proof/internal/graph"
	"proof/internal/hardware"
)

// Signature is the 32-byte key of one memoized layer unit.
type Signature [sha256.Size]byte

// String returns the hex form, for logs and fixtures.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// ContentKey canonically fingerprints the content of one fusion group:
// the ordered op types, attributes, and input/output tensor contents
// (dtype, shape, param flag, constant data) of its nodes, plus the
// group kind the backend lowered it as. Node and tensor *names* are
// deliberately excluded — tensors are identified by first-reference slot
// index — so structurally identical layers from different models produce
// the same key, which is what makes cross-model unit reuse sound. The
// encoding frames every field with a length or tag, so no concatenation
// of adjacent fields can collide with a different field split.
func ContentKey(g *graph.Graph, nodes []*graph.Node, kind string) string {
	h := sha256.New()
	writeStr(h, "proof-unit-v1")
	writeStr(h, kind)
	writeInt(h, int64(len(nodes)))
	slots := map[string]int{} // tensor name -> first-reference slot
	slot := func(name string) int64 {
		if i, ok := slots[name]; ok {
			return int64(i)
		}
		i := len(slots)
		slots[name] = i
		return int64(i)
	}
	for _, n := range nodes {
		if n == nil {
			writeStr(h, "nil-node")
			continue
		}
		writeStr(h, n.OpType)
		writeAttrs(h, n.Attrs)
		writeInt(h, int64(len(n.Inputs)))
		for _, in := range n.Inputs {
			writeInt(h, slot(in))
			writeTensor(h, tensorOf(g, in))
		}
		writeInt(h, int64(len(n.Outputs)))
		for _, out := range n.Outputs {
			writeInt(h, slot(out))
			writeTensor(h, tensorOf(g, out))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ReformatKey fingerprints a runtime-inserted reformat/reorder layer,
// whose simulated cost depends only on the converted tensor's dtype and
// shape.
func ReformatKey(t *graph.Tensor) string {
	h := sha256.New()
	writeStr(h, "proof-reformat-v1")
	writeTensor(h, t)
	return hex.EncodeToString(h.Sum(nil))
}

// Binding is the execution-environment half of a unit signature: the
// same layer content behaves differently per backend, platform
// descriptor, data type, batch, metrics mode, jitter seed and clock
// configuration, so all of them key the cache.
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
}

// UnitSignature combines a layer content key with its execution binding
// into the cache key of one memoized unit.
func UnitSignature(contentKey string, b Binding) Signature {
	h := sha256.New()
	writeStr(h, "proof-sig-v1")
	writeStr(h, contentKey)
	writeBinding(h, b)
	var sig Signature
	h.Sum(sig[:0])
	return sig
}

// PlanKey keys a whole profiling point: source identifies the model
// content (a zoo key for registry models, a graph digest for inline
// graphs), model is the report's display name (it can differ from the
// content source for inline graphs, and reports must echo it), and b is
// the execution binding.
func PlanKey(model, source string, b Binding) string {
	h := sha256.New()
	writeStr(h, "proof-plan-v1")
	writeStr(h, model)
	writeStr(h, source)
	writeBinding(h, b)
	return hex.EncodeToString(h.Sum(nil))
}

// GraphDigest fingerprints an inline graph's full content (JSON form) so
// sweeps over caller-supplied graphs can be plan-keyed. Sweep drivers
// compute it once per graph and pass it through Options.GraphDigest.
func GraphDigest(g *graph.Graph) (string, error) {
	raw, err := json.Marshal(g)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

func writeBinding(h hash.Hash, b Binding) {
	writeStr(h, b.Backend)
	writeStr(h, b.PlatformKey)
	writeStr(h, b.PlatformHash)
	writeInt(h, int64(b.DType))
	writeInt(h, int64(b.Batch))
	writeStr(h, b.Mode)
	writeInt(h, int64(b.Seed))
	writeInt(h, int64(b.Clocks.GPUMHz))
	writeInt(h, int64(b.Clocks.EMCMHz))
	writeInt(h, int64(b.Clocks.CPUMHz))
	writeInt(h, int64(b.Clocks.CPUClusters))
	writeFloat(h, b.Clocks.GPUCapacity)
}

func tensorOf(g *graph.Graph, name string) *graph.Tensor {
	if g == nil {
		return nil
	}
	return g.Tensor(name)
}

func writeTensor(h hash.Hash, t *graph.Tensor) {
	if t == nil {
		writeStr(h, "nil-tensor")
		return
	}
	writeStr(h, "tensor")
	writeInt(h, int64(t.DType))
	writeInt(h, int64(len(t.Shape)))
	for _, d := range t.Shape {
		writeInt(h, int64(d))
	}
	if t.Param {
		writeInt(h, 1)
	} else {
		writeInt(h, 0)
	}
	writeInt(h, int64(len(t.IntData)))
	for _, v := range t.IntData {
		writeInt(h, v)
	}
}

// writeAttrs hashes an attribute map order-independently by sorting the
// keys; Go map iteration order must never leak into a signature.
func writeAttrs(h hash.Hash, attrs graph.Attrs) {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	// Insertion sort: attr maps hold a handful of keys.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	writeInt(h, int64(len(keys)))
	for _, k := range keys {
		a := attrs[k]
		writeStr(h, k)
		writeInt(h, int64(a.Kind))
		switch a.Kind {
		case graph.AttrInt:
			writeInt(h, int64(a.I))
		case graph.AttrInts:
			writeInt(h, int64(len(a.Ints)))
			for _, v := range a.Ints {
				writeInt(h, int64(v))
			}
		case graph.AttrFloat:
			writeFloat(h, a.F)
		case graph.AttrString:
			writeStr(h, a.S)
		}
	}
}

// writeStr frames the string with its length so adjacent fields cannot
// be re-split into a colliding encoding.
func writeStr(h hash.Hash, s string) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	h.Write(buf[:n])
	h.Write([]byte(s))
}

func writeInt(h hash.Hash, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	h.Write(buf[:n])
}

func writeFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}
