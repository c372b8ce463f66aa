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

// coldProfileBudget caps the heap bytes and the heap objects one cold
// ProfileCtx allocates at batch 8, per cold-zoo pair. The bytes sit
// about 3% and the objects about 2% (at least one) above what the
// pipeline allocates once every stage allocates per run, not per layer:
// shape inference carves its shapes and propagated values from one
// array each, fusion lists its groups in one array and their nodes in
// another, the engine build takes its fused operators, boundary lists,
// layer names and kernels from run-wide arrays and texts, the layer
// mapping its node lists, fused operators and mapped layers, and layer
// keys are sums, not hex strings; the tail writes each report's layers
// in one pass (CHANGES.md lists the figures before and after). Object
// counts repeat exactly from run to run, under the race detector too:
// no sync.Pool, which it drains at random, sits on the pipeline's path.
var coldProfileBudget = map[string]struct{ bytes, objects uint64 }{
	"vit-t|a100":                 {209700, 59},
	"vit-s|a100":                 {209700, 59},
	"vit-b|a100":                 {209700, 59},
	"bert-base|a100":             {202600, 43},
	"mlp-mixer|xeon-6330":        {206200, 45},
	"shufflenetv2-0.5|xeon-6330": {235300, 58},
	"shufflenetv2-1.0|xeon-6330": {235300, 58},
	"mlp-mixer|npu3720":          {308700, 45},
	"shufflenetv2-0.5|npu3720":   {220500, 46},
	"shufflenetv2-1.0|npu3720":   {220500, 46},
}

// TestColdProfileBytes: one cold profile of each cold-zoo pair at
// batch 8 allocates no more heap bytes and objects than its budget. A
// run is cold when no cache serves it: the pipeline keeps no results,
// and every run draws a new seed. The zoo graph's one-time admission is
// paid before the measurement. Byte counts are deterministic up to map
// iteration, so this pins the saving without timing anything.
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
		got, objects := allocsPerRun(runs, func(i int) {
			opts.Seed = uint64(i + 1)
			if _, err := ProfileCtx(ctx, opts); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		key := p.model + "|" + p.platform
		t.Logf("%s: %d B, %d objects per cold profile", key, got, objects)
		budget := coldProfileBudget[key]
		if got > budget.bytes {
			t.Errorf("%s: one cold profile allocates %d B, budget %d B", key, got, budget.bytes)
		}
		if objects > budget.objects {
			t.Errorf("%s: one cold profile allocates %d objects, budget %d", key, objects, budget.objects)
		}
	}
}

// allocsPerRun returns the heap bytes and the heap objects call
// allocates on average over n calls, measured on one P so no other
// goroutine's allocations count.
func allocsPerRun(n int, call func(i int)) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n), (after.Mallocs - before.Mallocs) / uint64(n)
}

// BenchmarkColdProfile times cold pipelines: each op profiles the next
// (pair, batch) point of perfbench's cold-zoo slice with a seed no
// other op used, so nothing is served from a cache.
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
