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
// batch, dtype, mode, clocks and seed. Resolve must never panic: it
// returns an error matching one of its sentinels or a 64-hex key, its
// resolved clocks follow the clock rule (hardware.Platform.ResolveClocks,
// spelled out again here) and stay within the platform's CPU cluster
// count, and resolving its own resolved options gives the same key.
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
		f.Add(raw, "a100", "", 0, 0, "", 0, 0, 0, 0, 0.0, uint64(1))
	}
	// FuzzLayerSignature's nil-node and nil-tensor graphs.
	f.Add([]byte(`{"name":"nils","nodes":[null,{"attrs":null,"inputs":null}],"tensors":{"t":null,"u":{"shape":[]}},"inputs":null}`),
		"orin-nx", "trtsim", 4, int(graph.Float32), "measured", 2, 0, 0, 0, 0.0, uint64(7))
	f.Add([]byte(`{"nodes":null,"tensors":null,"outputs":[]}`), "rpi4b", "ortsim", 1, 0, "predicted", 0, 0, 0, 0, 0.0, uint64(0))
	f.Add([]byte("distilbert"), "npu3720", "", 0, 0, "", 0, 0, 0, 0, 0.0, uint64(3))
	f.Add([]byte("resnet-18"), "nope", "nope", -1, 99, "psychic", -3, 0, 0, 0, 0.0, uint64(0))
	// Partial clocks on the DVFS platform, one spelled negative, and a
	// clock above its domain's maximum.
	f.Add([]byte("resnet-18"), "orin-nx", "", 8, 0, "", 0, 612, -1, 729, 0.5, uint64(5))
	f.Add([]byte("resnet-18"), "orin-nx", "", 0, 0, "", 1, 0, 4000, 0, 1.5, uint64(6))
	// More CPU clusters than the DVFS platform has.
	f.Add([]byte("resnet-18"), "orin-nx", "", 0, 0, "", 1000, 0, 0, 0, 0.0, uint64(8))

	f.Fuzz(func(t *testing.T, raw []byte, platform, backend string, batch, dtype int, mode string,
		clusters, gpuMHz, emcMHz, cpuMHz int, capacity float64, seed uint64) {
		opts := Options{
			Platform: platform,
			Backend:  backend,
			Batch:    batch,
			DType:    graph.DataType(dtype),
			Mode:     Mode(mode),
			Seed:     seed,
			Clocks: hardware.Clocks{GPUMHz: gpuMHz, EMCMHz: emcMHz, CPUMHz: cpuMHz,
				CPUClusters: clusters, GPUCapacity: capacity},
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
		in, c := opts.Clocks, r.Clocks
		if d := r.Plat.Clocks; d != nil {
			for _, v := range [...]struct{ in, got, max int }{
				{in.GPUMHz, c.GPUMHz, d.GPUMaxMHz}, {in.EMCMHz, c.EMCMHz, d.EMCMaxMHz}, {in.CPUMHz, c.CPUMHz, d.CPUMaxMHz},
			} {
				want := v.in
				if want <= 0 {
					want = v.max
				}
				if v.got != want || v.got > v.max {
					t.Fatalf("%s: clock %d MHz resolved to %d, want %d (maximum %d)", r.Plat.Key, v.in, v.got, want, v.max)
				}
			}
		} else if c.GPUMHz != 0 || c.EMCMHz != 0 || c.CPUMHz != 0 {
			t.Fatalf("fixed-clock %s kept clocks %+v", r.Plat.Key, c)
		}
		wantClusters := in.CPUClusters
		if wantClusters < 1 || r.Plat.Power == nil {
			wantClusters = 1
		}
		wantCapacity := 0.0
		if in.GPUCapacity > 0 && in.GPUCapacity < 1 {
			wantCapacity = in.GPUCapacity
		}
		if d := r.Plat.Clocks; d != nil && c.CPUClusters > d.CPUClusters {
			t.Fatalf("%s: %d CPU clusters resolved, above the platform's %d", r.Plat.Key, c.CPUClusters, d.CPUClusters)
		}
		if c.CPUClusters != wantClusters || c.GPUCapacity != wantCapacity {
			t.Fatalf("%s: clusters %d and capacity %v resolved to %d and %v, want %d and %v",
				r.Plat.Key, in.CPUClusters, in.GPUCapacity, c.CPUClusters, c.GPUCapacity, wantClusters, wantCapacity)
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

// TestSeriesIdentity holds Series to Resolve's identity without the
// seed and the descriptor hash: it is shared by requests that differ
// only in those, and split by a change to any other field Key frames.
// The base runs on orin-nx, whose clocks are all read.
func TestSeriesIdentity(t *testing.T) {
	base := Options{Model: "resnet-18", Platform: "orin-nx", Backend: "trtsim", Batch: 4, DType: graph.Float16,
		Mode: ModePredicted, Seed: 1,
		Clocks: hardware.Clocks{GPUMHz: 510, EMCMHz: 2133, CPUMHz: 729, CPUClusters: 1, GPUCapacity: 0.5}}
	resolve := func(opts Options) Resolved {
		t.Helper()
		r, err := Resolve(opts)
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", opts, err)
		}
		return r
	}
	r := resolve(base)
	series := r.Series()
	if len(series) != 64 || series == r.Key {
		t.Fatalf("series %q: want a 64-hex hash apart from the key %q", series, r.Key)
	}

	reseeded := base
	reseeded.Seed = 99
	if rs := resolve(reseeded); rs.Key == r.Key || rs.Series() != series {
		t.Errorf("another seed: want a new key and the same series")
	}
	edited := *r.Plat
	edited.MemBW *= 2
	redesc := r
	redesc.Plat = &edited
	if edited.DescriptorHash() == r.Plat.DescriptorHash() || redesc.Series() != series {
		t.Errorf("an edited descriptor: want a new descriptor hash and the same series")
	}

	g, err := models.Build("resnet-18")
	if err != nil {
		t.Fatal(err)
	}
	inline := base
	inline.Model, inline.Graph = "net", g
	other, err := models.Build("resnet-34")
	if err != nil {
		t.Fatal(err)
	}
	split := map[string]func(*Options){
		"display name":      func(o *Options) { o.Model = "alias" },
		"zoo key":           func(o *Options) { o.Model = "resnet-34" },
		"graph digest":      func(o *Options) { o.Graph = other },
		"platform":          func(o *Options) { o.Platform = "rtx4090" },
		"backend":           func(o *Options) { o.Backend = "ortsim" },
		"batch":             func(o *Options) { o.Batch = 8 },
		"dtype":             func(o *Options) { o.DType = graph.Float32 },
		"mode":              func(o *Options) { o.Mode = ModeMeasured },
		"gpu clock":         func(o *Options) { o.Clocks.GPUMHz++ },
		"emc clock":         func(o *Options) { o.Clocks.EMCMHz++ },
		"cpu clock":         func(o *Options) { o.Clocks.CPUMHz++ },
		"cpu clusters":      func(o *Options) { o.Clocks.CPUClusters++ },
		"gpu capacity":      func(o *Options) { o.Clocks.GPUCapacity = 0.75 },
		"measured roofline": func(o *Options) { o.MeasuredRoofline = true },
	}
	for name, edit := range split {
		from := base
		if name == "display name" || name == "graph digest" {
			from = inline
		}
		to := from
		edit(&to)
		if a, b := resolve(from).Series(), resolve(to).Series(); a == b {
			t.Errorf("%s: changing it kept the series %s", name, a)
		}
	}
}
