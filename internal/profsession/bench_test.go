package profsession

import (
	"context"
	"slices"
	"testing"
	"time"

	"proof/internal/core"
)

// benchOpts is a mid-size configuration so the uncached baseline is
// representative of real pipeline work.
var benchOpts = core.Options{Model: "resnet-50", Platform: "a100", Batch: 32, Seed: 7}

// BenchmarkSessionCacheHit measures a cache-served Profile. Compare
// against BenchmarkUncachedProfile: the acceptance bar for this
// subsystem is a >=10x speedup, and TestCacheHitSpeedup enforces it.
func BenchmarkSessionCacheHit(b *testing.B) {
	s := New(0)
	if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUncachedProfile is the baseline: the full pipeline on every
// call.
func BenchmarkUncachedProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.ProfileCtx(context.Background(), benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCacheHitSpeedup asserts the acceptance criterion directly: a
// repeat Profile of identical Options through a session is at least
// 10x faster than the uncached pipeline. A hit is a map lookup plus a
// decode of the stored report's binary encoding into a report the
// caller owns. Each call is timed on its own, cached and uncached
// calls alternate, and the medians are compared, so a scheduler stall
// on a loaded host costs one sample rather than the verdict. Both paths
// first run untimed warm-up rounds, so the medians time the steady
// state, not the process's first calls: medians that included the
// warm-up read 9-13x on a 2-CPU host and failed the bar now and then
// (CHANGES.md keeps the measured runs).
func TestCacheHitSpeedup(t *testing.T) {
	const warmup, rounds = 25, 25
	s := New(0)
	if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		if _, err := core.ProfileCtx(context.Background(), benchOpts); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
			t.Fatal(err)
		}
	}

	uncached := make([]time.Duration, rounds)
	cached := make([]time.Duration, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := core.ProfileCtx(context.Background(), benchOpts); err != nil {
			t.Fatal(err)
		}
		uncached[i] = time.Since(start)
		start = time.Now()
		if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
			t.Fatal(err)
		}
		cached[i] = time.Since(start)
	}

	if st := s.Stats(); st.Hits != warmup+rounds {
		t.Fatalf("stats = %+v, want %d hits", st, warmup+rounds)
	}
	slices.Sort(uncached)
	slices.Sort(cached)
	u, c := uncached[rounds/2], cached[rounds/2]
	if c*10 > u {
		t.Fatalf("cache hit not >=10x faster: median cached %v vs uncached %v over %d rounds",
			c, u, rounds)
	}
	t.Logf("speedup: median uncached %v / cached %v = %.0fx over %d rounds",
		u, c, float64(u)/float64(c), rounds)
}
