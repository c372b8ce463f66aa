package profsession

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
)

// TestKeyMatchesReportIdentity is the request-identity property: two
// options share a Fingerprint exactly when they profile byte-identical
// reports. It runs the smallest zoo model of each family on every
// platform that supports it, at every spelling of the platform's
// defaults (batch 0, the default and twice it; dtype zero and the
// default; zero and one CPU clusters), plus single-field variants: the
// backend left empty or named, every mode spelling, ignore_support, a
// non-default dtype, the measured roofline, and clock spellings (GPU
// capacities in and outside (0, 1), two CPU clusters, clocks left unset,
// partly set, set to the maxima or below them). Options that differ
// only in how they spell a default must share a key.
func TestKeyMatchesReportIdentity(t *testing.T) {
	smallest := map[string]models.Info{}
	nodes := map[string]int{}
	for _, info := range models.List() {
		g, err := info.Build()
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := nodes[info.Type]; !ok || len(g.Nodes) < n {
			smallest[info.Type], nodes[info.Type] = info, len(g.Nodes)
		}
	}
	for _, info := range smallest {
		for _, plat := range hardware.List() {
			if !plat.Supports(info.Type) {
				continue
			}
			t.Run(info.Key+"/"+plat.Key, func(t *testing.T) { checkIdentity(t, info.Key, plat) })
		}
	}
}

func checkIdentity(t *testing.T, model string, plat *hardware.Platform) {
	base := core.Options{Model: model, Platform: plat.Key, Seed: 3}
	var opts []core.Options
	for _, batch := range []int{0, plat.DefaultBatch, 2 * plat.DefaultBatch} {
		for _, dt := range []graph.DataType{0, plat.DefaultDType} {
			for _, clusters := range []int{0, 1} {
				o := base
				o.Batch, o.DType, o.Clocks.CPUClusters = batch, dt, clusters
				opts = append(opts, o)
			}
		}
	}
	other := graph.Float32
	if plat.DefaultDType == graph.Float32 {
		other = graph.Float16
	}
	for _, vary := range []func(*core.Options){
		func(o *core.Options) { o.Backend = plat.Runtime },
		func(o *core.Options) { o.Mode = core.ModePredicted },
		func(o *core.Options) { o.Mode = core.ModeMeasured },
		func(o *core.Options) { o.IgnoreSupport = true },
		func(o *core.Options) { o.DType = other },
		func(o *core.Options) { o.MeasuredRoofline = true },
		func(o *core.Options) { o.Seed += 1 << 32 },
		func(o *core.Options) { o.Clocks.GPUCapacity = 1 },
		func(o *core.Options) { o.Clocks.GPUCapacity = 1.5 },
		func(o *core.Options) { o.Clocks.GPUCapacity = 0.5 },
		func(o *core.Options) { o.Clocks.CPUClusters = 2 },
		func(o *core.Options) { o.Clocks = hardware.Clocks{GPUMHz: 612, EMCMHz: 2133, CPUMHz: 729} },
		func(o *core.Options) { o.Clocks = hardware.Clocks{EMCMHz: 665} },
		func(o *core.Options) { o.Clocks = hardware.Clocks{GPUMHz: 918, EMCMHz: 665} },
		func(o *core.Options) { o.Clocks = hardware.Clocks{GPUMHz: 918, EMCMHz: 3199, CPUMHz: 1984} },
		func(o *core.Options) { o.Clocks = hardware.Clocks{GPUMHz: 918, EMCMHz: 3199, GPUCapacity: 0.5} },
	} {
		o := base
		vary(&o)
		opts = append(opts, o)
	}

	// spelled applies the platform defaults by hand, independently of
	// core.Resolve: options with equal spellings must share a key. Only
	// a DVFS platform reads the three clocks (unset = the maximum), only
	// a power model reads CPU clusters, and a GPU capacity outside
	// (0, 1) enables every TPC.
	spelled := func(o core.Options) core.Options {
		if o.Batch == 0 {
			o.Batch = plat.DefaultBatch
		}
		if o.DType == 0 {
			o.DType = plat.DefaultDType
		}
		c := &o.Clocks
		if d := plat.Clocks; d == nil {
			c.GPUMHz, c.EMCMHz, c.CPUMHz = 0, 0, 0
		} else {
			if c.GPUMHz == 0 {
				c.GPUMHz = d.GPUMaxMHz
			}
			if c.EMCMHz == 0 {
				c.EMCMHz = d.EMCMaxMHz
			}
			if c.CPUMHz == 0 {
				c.CPUMHz = d.CPUMaxMHz
			}
		}
		if c.CPUClusters == 0 || plat.Power == nil {
			c.CPUClusters = 1
		}
		if c.GPUCapacity >= 1 {
			c.GPUCapacity = 0
		}
		if o.Backend == "" {
			o.Backend = plat.Runtime
		}
		if o.Mode == "" {
			o.Mode = core.ModePredicted
		}
		o.IgnoreSupport = false
		return o
	}
	keys := make([]string, len(opts))
	reports := make([][]byte, len(opts))
	for i, o := range opts {
		key, err := Fingerprint(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		rep, err := core.ProfileCtx(context.Background(), o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if reports[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	for i := range opts {
		for j := 0; j < i; j++ {
			sameKey := keys[i] == keys[j]
			if same := bytes.Equal(reports[i], reports[j]); sameKey != same {
				t.Errorf("same key %v but same report %v:\n  %+v\n  %+v", sameKey, same, opts[i], opts[j])
			}
			if spelled(opts[i]) == spelled(opts[j]) && !sameKey {
				t.Errorf("two spellings of one experiment keyed apart:\n  %+v\n  %+v", opts[i], opts[j])
			}
		}
	}
}

// TestResolutionErrorsBypassCache: a request core.Resolve refuses
// fails with its typed error before the cache. It counts no miss,
// reports no outcome, creates no circuit and never reaches the
// profiler.
func TestResolutionErrorsBypassCache(t *testing.T) {
	var calls int
	s := NewWithConfig(Config{
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			calls++
			return stubRep(opts), nil
		},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	for _, c := range []struct {
		opts core.Options
		want error
	}{
		{core.Options{Model: "nope", Platform: "a100"}, core.ErrUnknownModel},
		{core.Options{Model: "resnet-18", Platform: "nope"}, core.ErrUnknownPlatform},
		{core.Options{Model: "resnet-18", Platform: "a100", Backend: "nope"}, core.ErrUnknownBackend},
		{core.Options{Model: "distilbert", Platform: "npu3720"}, core.ErrUnsupported},
		{core.Options{Model: "resnet-18", Platform: "a100", Batch: -1}, core.ErrInvalidOption},
		{core.Options{Model: "resnet-18", Platform: "a100", Mode: "psychic"}, core.ErrInvalidOption},
		{core.Options{Model: "resnet-18", Platform: "orin-nx", Clocks: hardware.Clocks{GPUMHz: 5000, EMCMHz: 20000}}, core.ErrInvalidOption},
		{core.Options{Model: "resnet-18", Platform: "orin-nx", Clocks: hardware.Clocks{CPUClusters: 1000}}, core.ErrInvalidOption},
	} {
		t.Run(fmt.Sprint(c.want, " ", c.opts.Model, "/", c.opts.Platform), func(t *testing.T) {
			_, out, err := s.ProfileOutcome(context.Background(), c.opts)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if out != "" {
				t.Errorf("outcome = %q, want none", out)
			}
		})
	}
	if st := s.Stats(); st.Misses != 0 || st.Hits != 0 || st.Dedups != 0 || st.Size != 0 {
		t.Errorf("refused requests moved the cache: %+v", st)
	}
	if opens, reopens, closes, fastFails := s.breakers.snapshot(); opens+reopens+closes+fastFails != 0 {
		t.Errorf("refused requests moved a circuit: opens=%d reopens=%d closes=%d fastFails=%d", opens, reopens, closes, fastFails)
	}
	if n := len(s.breakers.m); n != 0 {
		t.Errorf("refused requests created %d circuits", n)
	}
	if calls != 0 {
		t.Errorf("refused requests reached the profiler %d times", calls)
	}
}
