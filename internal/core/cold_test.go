package core

import (
	"context"
	"runtime"
	"testing"
)

// coldZooPairs is perfbench's cold-zoo slice (perfbench/workload.go):
// the (zoo model, platform) pairs whose cold profiles dominate that
// workload, one platform per simulated runtime.
var coldZooPairs = []struct{ model, platform string }{
	{"vit-t", "a100"}, {"vit-s", "a100"}, {"vit-b", "a100"}, {"bert-base", "a100"},
	{"mlp-mixer", "xeon-6330"}, {"shufflenetv2-0.5", "xeon-6330"}, {"shufflenetv2-1.0", "xeon-6330"},
	{"mlp-mixer", "npu3720"}, {"shufflenetv2-0.5", "npu3720"}, {"shufflenetv2-1.0", "npu3720"},
}

// coldBatches is perfbench's batch grid.
var coldBatches = []int{1, 2, 4, 8, 16, 32}

// coldProfileBudget caps the heap bytes one cold ProfileCtx allocates
// at batch 8, per cold-zoo pair. Each budget sits at least 20% below
// what the pipeline allocated when every run built name-keyed maps for
// its view, costs, fusion state and content keys (CHANGES.md lists
// both columns).
var coldProfileBudget = map[string]uint64{
	"vit-t|a100":                 340000,
	"vit-s|a100":                 340000,
	"vit-b|a100":                 340000,
	"bert-base|a100":             330000,
	"mlp-mixer|xeon-6330":        350000,
	"shufflenetv2-0.5|xeon-6330": 420000,
	"shufflenetv2-1.0|xeon-6330": 420000,
	"mlp-mixer|npu3720":          530000,
	"shufflenetv2-0.5|npu3720":   380000,
	"shufflenetv2-1.0|npu3720":   380000,
}

// TestColdProfileBytes: one cold profile of each cold-zoo pair at
// batch 8 allocates no more heap than its budget. A run is cold when
// no cache serves it: there is no memo store, and every run draws a
// new seed. The zoo graph's one-time admission is paid before the
// measurement. Byte counts are deterministic up to map iteration, so
// this pins the saving without timing anything.
func TestColdProfileBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles ten zoo models")
	}
	const runs = 5
	ctx := context.Background()
	for _, p := range coldZooPairs {
		opts := Options{Model: p.model, Platform: p.platform, Batch: 8}
		if _, err := ProfileCtx(ctx, opts); err != nil {
			t.Fatal(err)
		}
		var runErr error
		got := bytesPerRun(runs, func(i int) {
			opts.Seed = uint64(i + 1)
			if _, err := ProfileCtx(ctx, opts); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		key := p.model + "|" + p.platform
		t.Logf("%s: %d B per cold profile", key, got)
		if budget := coldProfileBudget[key]; got > budget {
			t.Errorf("%s: one cold profile allocates %d B, budget %d B", key, got, budget)
		}
	}
}

// bytesPerRun returns the heap bytes call allocates on average over n
// calls, measured on one P so no other goroutine's allocations count.
func bytesPerRun(n int, call func(i int)) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// BenchmarkColdProfile times cold pipelines: each op profiles the next
// (pair, batch) point of perfbench's cold-zoo slice with a seed no
// other op used, and no memo store, so nothing is served from a cache.
// Zoo graphs are admitted before the timer starts, once per process as
// in proofd.
func BenchmarkColdProfile(b *testing.B) {
	ctx := context.Background()
	type point struct {
		model, platform string
		batch           int
	}
	var points []point
	for _, p := range coldZooPairs {
		for _, batch := range coldBatches {
			points = append(points, point{p.model, p.platform, batch})
		}
		if _, err := ProfileCtx(ctx, Options{Model: p.model, Platform: p.platform}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := points[i%len(points)]
		opts := Options{Model: pt.model, Platform: pt.platform, Batch: pt.batch, Seed: uint64(i + 1)}
		if _, err := ProfileCtx(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}
