package profsession

import (
	"context"
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
// 10x faster than the uncached pipeline. The real margin is orders of
// magnitude (a hit is a map lookup plus a report copy), so the 10x
// bar stays safe even under the race detector.
func TestCacheHitSpeedup(t *testing.T) {
	const rounds = 25
	s := New(0)
	if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
		t.Fatal(err)
	}

	uncachedStart := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := core.ProfileCtx(context.Background(), benchOpts); err != nil {
			t.Fatal(err)
		}
	}
	uncached := time.Since(uncachedStart)

	cachedStart := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := s.ProfileCtx(context.Background(), benchOpts); err != nil {
			t.Fatal(err)
		}
	}
	cached := time.Since(cachedStart)

	if st := s.Stats(); st.Hits != rounds {
		t.Fatalf("stats = %+v, want %d hits", st, rounds)
	}
	if cached*10 > uncached {
		t.Fatalf("cache hit not >=10x faster: cached %v vs uncached %v over %d rounds",
			cached, uncached, rounds)
	}
	t.Logf("speedup: uncached %v / cached %v = %.0fx over %d rounds",
		uncached, cached, float64(uncached)/float64(cached), rounds)
}
