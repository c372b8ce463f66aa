package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"testing"

	"proof/internal/graph"
)

// kernelName is AppendKernelName's name as a string.
func kernelName(arch string, class Class, dt graph.DataType, name string) string {
	return string(AppendKernelName(nil, arch, class, dt, name))
}

// nameJitter is the jitter of a layer that carries no content key.
func nameJitter(name string, seed uint64, scale float64) float64 {
	w := Work{Name: name}
	return jitter(w.identity(), "", seed, scale)
}

// kernelNameFor is the string form kernel names were first written
// in: concatenation around a strings.Map sanitizer. The goldens pin
// kernel names, so AppendKernelName must write exactly these bytes.
func kernelNameFor(arch string, class Class, dt graph.DataType, name string) string {
	sm, stem := kernelStem(arch, class)
	return sm + "_" + stem + "_" + dt.String() + "_" + strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

// TestAppendKernelNameMatchesStringsMap: every single byte, every pair
// of bytes, multi-byte and invalid UTF-8 and 2,000 random strings name
// a kernel exactly as the strings.Map form did, and KernelNameLen
// predicts each name's length.
func TestAppendKernelNameMatchesStringsMap(t *testing.T) {
	var cases []string
	for a := 0; a < 256; a++ {
		cases = append(cases, string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			cases = append(cases, string([]byte{byte(a), byte(b)}))
		}
	}
	cases = append(cases, "", "conv1/Conv+Relu", "/blocks.3/attn/MatMul_1", "naïve 😀", "\xe2\x80\xa8\xe2\x80\xa9",
		"\xed\xa0\x80", "\xc3", "\xef\xbf\xbd", "a\xffb\xe2\x80c", "\xf0\x9f\x98", "\xf4\x90\x80\x80")
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.IntN(24))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		cases = append(cases, string(b))
	}
	archs := []string{"ampere", "ada", "volta", "x86-avx512"}
	classes := []Class{ClassElementwise, ClassGEMM, ClassConv, ClassDWConv, ClassNorm, ClassSoftmax,
		ClassReduction, ClassDataMovement, ClassEmbedding, ClassMemCopy, ClassMeta}
	dts := []graph.DataType{graph.Float32, graph.Float16, graph.Int8}
	var buf []byte
	for i, name := range cases {
		arch, class, dt := archs[i%len(archs)], classes[i%len(classes)], dts[i%len(dts)]
		want := kernelNameFor(arch, class, dt, name)
		buf = AppendKernelName(buf[:0], arch, class, dt, name)
		if string(buf) != want {
			t.Fatalf("AppendKernelName(%q, %v, %v, %q) = %q, want %q", arch, class, dt, name, buf, want)
		}
		if n := KernelNameLen(arch, class, dt, name); n != len(want) {
			t.Fatalf("KernelNameLen(%q, %v, %v, %q) = %d, want %d", arch, class, dt, name, n, len(want))
		}
	}
}

// jitter2 is the jitter layers had while their keys were hex strings:
// FNV-1a over name, suffix and the seed's little-endian bytes, four
// below 2^32 and all eight from 2^32 on.
func jitter2(name, suffix string, seed uint64, scale float64) float64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	for i := 0; i < len(suffix); i++ {
		h = (h ^ uint64(suffix[i])) * fnvPrime64
	}
	seedBytes := binary.LittleEndian.AppendUint64(nil, seed)
	if seed>>32 == 0 {
		seedBytes = seedBytes[:4]
	}
	for _, b := range seedBytes {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	u := float64(h%1_000_000)/500_000 - 1
	return u * scale
}

// TestKeyJitterMatchesHexJitter: a layer keyed by a SHA-256 sum
// jitters exactly as it did when its key was the sum's hex string, for
// the latency suffix and the traffic suffix, at seeds below and at or
// above 2^32.
func TestKeyJitterMatchesHexJitter(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	seeds := []uint64{0, 1, 9601, 1<<32 - 1, 1 << 32, 1<<32 + 9601, 1<<64 - 1}
	for i := 0; i < 500; i++ {
		var w Work
		for j := range w.Key {
			w.Key[j] = byte(rng.Uint32())
		}
		if i == 0 {
			w.Key = sha256.Sum256([]byte("proof"))
		}
		id := w.identity()
		for _, suffix := range []string{"", "/bytes"} {
			for _, seed := range append(seeds, rng.Uint64()) {
				if got, want := jitter(id, suffix, seed, 1), jitter2(hex.EncodeToString(w.Key[:]), suffix, seed, 1); got != want {
					t.Fatalf("key %x, suffix %q, seed %d: jitter %v, want %v", w.Key, suffix, seed, got, want)
				}
			}
		}
	}
}
