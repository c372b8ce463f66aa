package roofline

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// mirrorMarshalJSON is the encoding Point.MarshalJSON must keep byte
// for byte: a struct that mirrors Point field for field, with AI as a
// pointer nulled when not finite, through encoding/json.
func mirrorMarshalJSON(p Point) ([]byte, error) {
	wire := struct {
		Name      string        `json:"name"`
		AI        *float64      `json:"ai"`
		FLOPS     float64       `json:"flops"`
		Bandwidth float64       `json:"bandwidth"`
		Latency   time.Duration `json:"latency_ns"`
		Share     float64       `json:"share"`
		FLOP      int64         `json:"flop"`
		Bytes     int64         `json:"bytes"`
		Category  string        `json:"category,omitempty"`
		Bound     string        `json:"bound"`
	}{p.Name, nil, p.FLOPS, p.Bandwidth, p.Latency, p.Share, p.FLOP, p.Bytes, p.Category, p.Bound}
	if !math.IsInf(p.AI, 0) && !math.IsNaN(p.AI) {
		wire.AI = &p.AI
	}
	return json.Marshal(wire)
}

// TestPointMarshalJSONMatchesMirror: over random points, MarshalJSON
// writes exactly the bytes of the mirror-struct encoding, and fails
// exactly when it fails. Floats are random bit patterns plus the
// format edges (signed zero, subnormals, the 1e-6 and 1e21 switches to
// exponent form, infinities, NaN); strings are random bytes plus the
// escaping edges (HTML characters, quotes, backslashes, control bytes,
// U+2028/U+2029, invalid UTF-8).
func TestPointMarshalJSONMatchesMirror(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e-9, 1.5e-10,
		1e20, 1e21, -1e21, 1e22, 999999999999999999999.0, math.MaxFloat64,
		0.1, 1.0 / 3, 123456789.125, 2e9, 1.349895e12,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	float := func() float64 {
		if rng.IntN(2) == 0 {
			return edges[rng.IntN(len(edges))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	strs := []string{
		"", "conv1/Conv+Relu", "<script>&amp;</script>", `say "hi" \ back\slash`,
		"ctl \x00\x01\x07\b\f\n\r\t\x1f\x7f", "sep\u2028line\u2029para", "bad \xff\xfe \xc3 \xed\xa0\x80 utf8",
		"naïve 😀 ünïcode", "\ufffd", "dwconv", "memory", "compute", "ridge",
	}
	str := func() string {
		if rng.IntN(2) == 0 {
			return strs[rng.IntN(len(strs))]
		}
		b := make([]byte, rng.IntN(12))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		p := Point{
			Name: str(), AI: float(), FLOPS: float(), Bandwidth: float(),
			Latency: time.Duration(rng.Uint64()), Share: float(),
			FLOP: int64(rng.Uint64()), Bytes: int64(rng.Uint64()),
			Category: str(), Bound: str(),
		}
		if i%4 == 0 { // mostly finite, as in a report
			p.FLOPS, p.Bandwidth, p.Share = math.Abs(rng.NormFloat64())*1e12, rng.Float64()*1e12, rng.Float64()
		}
		got, err := p.MarshalJSON()
		want, werr := mirrorMarshalJSON(p)
		if (err == nil) != (werr == nil) {
			t.Fatalf("point %+v: error %v, mirror's %v", p, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("point %+v:\n got  %s\n want %s", p, got, want)
		}
	}
}
