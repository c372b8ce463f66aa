package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
)

// FuzzResolve pairs arbitrary bytes, strictly decoded as an inline
// graph the way proofd's edge decodes one (bytes that do not decode
// name a zoo model instead), with an arbitrary platform, backend,
// batch, dtype, mode, CPU cluster count and seed. Resolve must never
// panic: it returns an error matching one of its sentinels or a 64-hex
// key, and resolving its own resolved options gives the same key.
func FuzzResolve(f *testing.F) {
	for _, key := range []string{"peak-test", "resnet-18"} {
		g, err := models.Build(key)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, "a100", "", 0, 0, "", 0, uint64(1))
	}
	// FuzzLayerSignature's nil-node and nil-tensor graphs.
	f.Add([]byte(`{"name":"nils","nodes":[null,{"attrs":null,"inputs":null}],"tensors":{"t":null,"u":{"shape":[]}},"inputs":null}`),
		"orin-nx", "trtsim", 4, int(graph.Float32), "measured", 2, uint64(7))
	f.Add([]byte(`{"nodes":null,"tensors":null,"outputs":[]}`), "rpi4b", "ortsim", 1, 0, "predicted", 0, uint64(0))
	f.Add([]byte("distilbert"), "npu3720", "", 0, 0, "", 0, uint64(3))
	f.Add([]byte("resnet-18"), "nope", "nope", -1, 99, "psychic", -3, uint64(0))

	f.Fuzz(func(t *testing.T, raw []byte, platform, backend string, batch, dtype int, mode string, clusters int, seed uint64) {
		opts := Options{
			Platform: platform,
			Backend:  backend,
			Batch:    batch,
			DType:    graph.DataType(dtype),
			Mode:     Mode(mode),
			Seed:     seed,
			Clocks:   hardware.Clocks{CPUClusters: clusters},
		}
		g := &graph.Graph{}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(g) == nil {
			opts.Graph = g
		} else {
			opts.Model = string(raw)
		}
		r, err := Resolve(opts)
		if err != nil {
			for _, kind := range []error{ErrUnknownModel, ErrUnknownPlatform, ErrUnknownBackend, ErrUnsupported, ErrInvalidOption} {
				if errors.Is(err, kind) {
					return
				}
			}
			t.Fatalf("untyped resolution error: %v", err)
		}
		if len(r.Key) != 64 || strings.Trim(r.Key, "0123456789abcdef") != "" {
			t.Fatalf("key %q is not 64 hex digits", r.Key)
		}
		again, err := Resolve(r.Options)
		if err != nil {
			t.Fatalf("resolved options refused: %v", err)
		}
		if again.Key != r.Key {
			t.Fatalf("resolving again moved the key: %s -> %s", r.Key, again.Key)
		}
	})
}
