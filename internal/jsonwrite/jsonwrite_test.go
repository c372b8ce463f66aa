package jsonwrite

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

// TestStringMatchesEncodingJSON: every single byte, every pair of
// bytes, and strings with multi-byte, invalid and line-separator runes
// quote exactly as encoding/json quotes them.
func TestStringMatchesEncodingJSON(t *testing.T) {
	var cases []string
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"z")
	}
	cases = append(cases, "", "conv1/Conv+Relu", "naïve 😀", "\xe2\x80\xa8\xe2\x80\xa9",
		"\xed\xa0\x80", "\xc3", "\xef\xbf\xbd", "a\xffb\xe2\x80c")
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.IntN(16))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String(nil, s); string(got) != string(want) {
			t.Fatalf("String(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestFloatMatchesEncodingJSON: finite floats at the format edges and
// random bit patterns format exactly as encoding/json formats them.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
		1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 999999999999999999999.0, 0.1, 1.0 / 3,
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for len(cases) < 5000 {
		if f := math.Float64frombits(rng.Uint64()); Finite(f) {
			cases = append(cases, f)
		}
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := Float(nil, f); string(got) != string(want) {
			t.Fatalf("Float(%v) = %s, want %s", f, got, want)
		}
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if Finite(f) {
			t.Errorf("Finite(%v) = true", f)
		}
	}
}
