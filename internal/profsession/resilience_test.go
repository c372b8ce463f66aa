package profsession

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/faults"
	"proof/internal/graph"
	"proof/internal/obs"
)

// stubRep builds a minimal valid report for a stub profiler.
func stubRep(opts core.Options) *core.Report {
	return &core.Report{Model: opts.Model, Platform: opts.Platform, Batch: opts.Batch}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if calls.Add(1) < 3 {
				return nil, faults.Transient(errors.New("flaky"))
			}
			return stubRep(opts), nil
		},
		Retry: RetryPolicy{Attempts: 4, Base: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	rep, out, err := s.ProfileOutcome(context.Background(), baseOpts)
	if err != nil || rep == nil {
		t.Fatalf("ProfileOutcome = %v, %v", rep, err)
	}
	if out != OutcomeMiss {
		t.Errorf("outcome = %v, want miss", out)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("profiler calls = %d, want 3", got)
	}
	st := s.Stats()
	if st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
	// One logical request, one miss: retries are invisible to the
	// hit/miss accounting and only the success is cached.
	if st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 miss / size 1", st)
	}
	// The cached report serves subsequent requests without retrying.
	if _, out, err := s.ProfileOutcome(context.Background(), baseOpts); err != nil || out != OutcomeHit {
		t.Errorf("second request: outcome %v err %v, want hit", out, err)
	}
}

func TestRetrySkipsPermanentAndUnclassified(t *testing.T) {
	for name, mkErr := range map[string]func() error{
		"permanent":    func() error { return faults.Permanent(errors.New("broken")) },
		"unclassified": func() error { return errors.New("unknown") },
	} {
		t.Run(name, func(t *testing.T) {
			var calls atomic.Int64
			s := NewWithConfig(Config{
				Capacity: 4,
				Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
					calls.Add(1)
					return nil, mkErr()
				},
				Retry: RetryPolicy{Attempts: 5, Base: time.Millisecond},
			})
			if _, err := s.ProfileCtx(context.Background(), baseOpts); err == nil {
				t.Fatal("want error")
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("calls = %d, want 1 (no retries)", got)
			}
			if st := s.Stats(); st.Retries != 0 || st.RetriesExhausted != 0 {
				t.Errorf("retry counters moved: %+v", st)
			}
		})
	}
}

func TestRetryExhaustionCountsAndDoesNotCache(t *testing.T) {
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			calls.Add(1)
			return nil, faults.Transient(errors.New("still flaky"))
		},
		Retry: RetryPolicy{Attempts: 3, Base: time.Millisecond},
	})
	if _, err := s.ProfileCtx(context.Background(), baseOpts); !faults.IsTransient(err) {
		t.Fatalf("err = %v, want the transient failure", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("calls = %d, want 3", got)
	}
	st := s.Stats()
	if st.RetriesExhausted != 1 {
		t.Errorf("RetriesExhausted = %d, want 1", st.RetriesExhausted)
	}
	if st.Size != 0 {
		t.Errorf("failed execution reached the store: %+v", st)
	}
}

func TestAttemptTimeoutBoundsHungAttempts(t *testing.T) {
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // a deadline blowthrough: hangs until cancelled
				return nil, ctx.Err()
			}
			return stubRep(opts), nil
		},
		Retry: RetryPolicy{Attempts: 2, Base: time.Millisecond, AttemptTimeout: 20 * time.Millisecond},
	})
	start := time.Now()
	rep, err := s.ProfileCtx(context.Background(), baseOpts)
	if err != nil || rep == nil {
		t.Fatalf("Profile = %v, %v", rep, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hung attempt not bounded: took %v", d)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("calls = %d, want 2", got)
	}
}

func TestRetryStopsWhenCallerGone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			calls.Add(1)
			cancel()
			return nil, faults.Transient(errors.New("flaky"))
		},
		Retry: RetryPolicy{Attempts: 10, Base: time.Hour}, // would hang if retried
	})
	start := time.Now()
	if _, err := s.ProfileCtx(ctx, baseOpts); err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1", calls.Load())
	}
	if time.Since(start) > time.Second {
		t.Error("cancelled caller still waited out the backoff")
	}
}

// TestRetryInsideSingleflight asserts duplicate requests share one
// retrying execution rather than each retrying independently.
func TestRetryInsideSingleflight(t *testing.T) {
	var calls atomic.Int64
	firstAttempted := make(chan struct{})
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			n := calls.Add(1)
			if n == 1 {
				close(firstAttempted)
				return nil, faults.Transient(errors.New("flaky"))
			}
			return stubRep(opts), nil
		},
		Retry: RetryPolicy{Attempts: 3, Base: 20 * time.Millisecond},
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.ProfileCtx(context.Background(), baseOpts)
		done <- err
	}()
	<-firstAttempted // leader is now in backoff
	rep, out, err := s.ProfileOutcome(context.Background(), baseOpts)
	if err != nil || rep == nil {
		t.Fatalf("follower: %v, %v", rep, err)
	}
	if out != OutcomeDedup {
		t.Errorf("follower outcome = %v, want dedup (shared the retrying execution)", out)
	}
	if err := <-done; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("profiler calls = %d, want 2 (one shared execution, one retry)", got)
	}
}

func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			calls.Add(1)
			if failing.Load() {
				return nil, faults.Permanent(errors.New("backend down"))
			}
			return stubRep(opts), nil
		},
		Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Minute},
	})
	// Deterministic clock.
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }

	opts := baseOpts
	for i := 0; i < 3; i++ {
		opts.Batch = i + 1 // distinct fingerprints, same breaker key
		if _, err := s.ProfileCtx(context.Background(), opts); err == nil {
			t.Fatal("want failure")
		}
	}
	// Circuit open: next request fails fast without executing.
	before := calls.Load()
	stBefore := s.Stats()
	opts.Batch = 99
	_, out, err := s.ProfileOutcome(context.Background(), opts)
	var coe *CircuitOpenError
	if !errors.As(err, &coe) {
		t.Fatalf("err = %v, want CircuitOpenError", err)
	}
	if out != OutcomeRejected {
		t.Errorf("outcome = %v, want rejected", out)
	}
	if coe.RetryAfter <= 0 || coe.RetryAfter > time.Minute {
		t.Errorf("RetryAfter = %v, want within (0, cooldown]", coe.RetryAfter)
	}
	if !strings.Contains(coe.Key, baseOpts.Model) || !strings.Contains(coe.Key, "|"+baseOpts.Platform) {
		t.Errorf("breaker key = %q, want model|platform", coe.Key)
	}
	if calls.Load() != before {
		t.Error("open circuit still executed the pipeline")
	}
	// Misses counts requests that executed the pipeline, so a rejected
	// request moves neither it nor the in-flight gauge.
	if st := s.Stats(); st.Misses != stBefore.Misses || st.Inflight != stBefore.Inflight {
		t.Errorf("rejected request moved Misses %d -> %d, Inflight %d -> %d",
			stBefore.Misses, st.Misses, stBefore.Inflight, st.Inflight)
	}
	// A different platform has its own circuit.
	other := baseOpts
	other.Platform = "orin-nx"
	failing.Store(false)
	if _, err := s.ProfileCtx(context.Background(), other); err != nil {
		t.Errorf("other platform blocked by open circuit: %v", err)
	}

	// After cooldown, a half-open probe closes the circuit.
	now = now.Add(2 * time.Minute)
	opts.Batch = 100
	if _, err := s.ProfileCtx(context.Background(), opts); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	opens, reopens, closes, fastFails := s.breakers.snapshot()
	if opens != 1 || closes != 1 || fastFails < 1 {
		t.Errorf("transitions opens=%d reopens=%d closes=%d fastFails=%d", opens, reopens, closes, fastFails)
	}
	// Closed again: requests flow normally.
	opts.Batch = 101
	if _, err := s.ProfileCtx(context.Background(), opts); err != nil {
		t.Errorf("closed circuit rejected: %v", err)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			return nil, errors.New("still down")
		},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }

	opts := baseOpts
	if _, err := s.ProfileCtx(context.Background(), opts); err == nil {
		t.Fatal("want failure")
	}
	now = now.Add(2 * time.Minute)
	opts.Batch++
	if _, _, err := s.ProfileOutcome(context.Background(), opts); err == nil {
		t.Fatal("probe should fail")
	}
	// Probe failed: open again, fast-failing without execution.
	opts.Batch++
	_, out, err := s.ProfileOutcome(context.Background(), opts)
	var coe *CircuitOpenError
	if !errors.As(err, &coe) || out != OutcomeRejected {
		t.Fatalf("after failed probe: out=%v err=%v, want rejected/CircuitOpenError", out, err)
	}
	if _, reopens, _, _ := s.breakers.snapshot(); reopens != 1 {
		t.Errorf("reopens = %d, want 1", reopens)
	}
}

// TestPanickingProbeReleasesKeyAndCircuit: an execution that panics
// must free both its cache key and its circuit. A key left in flight
// makes every later request for it wait out its deadline, and a
// half-open probe that never reports keeps its circuit rejecting for
// good. The panic itself still reaches the caller, where net/http and
// parallel.MapCtx recover it.
func TestPanickingProbeReleasesKeyAndCircuit(t *testing.T) {
	var mode atomic.Int32 // 0 healthy, 1 failing, 2 panicking
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			switch mode.Load() {
			case 1:
				return nil, errors.New("backend down")
			case 2:
				panic("probe exploded")
			}
			return stubRep(opts), nil
		},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }

	mode.Store(1)
	if _, err := s.ProfileCtx(context.Background(), baseOpts); err == nil { // opens the circuit
		t.Fatal("want failure")
	}
	now = now.Add(2 * time.Minute)
	mode.Store(2)
	probe := baseOpts
	probe.Batch = 2
	func() {
		defer func() {
			if r := recover(); r != "probe exploded" {
				t.Errorf("recovered %v, want the profiler's panic", r)
			}
		}()
		s.ProfileCtx(context.Background(), probe)
	}()
	if st := s.Stats(); st.Inflight != 0 {
		t.Errorf("Inflight = %d after a panicking execution, want 0", st.Inflight)
	}

	// The panicking probe re-opened the circuit; after another cooldown
	// a healthy probe closes it.
	mode.Store(0)
	now = now.Add(2 * time.Minute)
	other := baseOpts
	other.Batch = 3
	if _, err := s.ProfileCtx(context.Background(), other); err != nil {
		t.Errorf("circuit still rejecting after the panicking probe: %v", err)
	}
	// The panicked key executes afresh instead of waiting on its dead
	// in-flight slot.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, out, err := s.ProfileOutcome(ctx, probe); err != nil || out != OutcomeMiss {
		t.Errorf("panicked key: outcome %v err %v, want a fresh miss", out, err)
	}
}

func TestBreakerIgnoresAbandonedExecutions(t *testing.T) {
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	opts := baseOpts
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		opts.Batch = i + 1
		if _, err := s.ProfileCtx(ctx, opts); err == nil {
			t.Fatal("want cancellation error")
		}
		cancel()
	}
	// Cancelled requests must not have opened the circuit.
	if opens, _, _, _ := s.breakers.snapshot(); opens != 0 {
		t.Errorf("opens = %d after abandoned executions, want 0", opens)
	}
}

// TestBreakerIgnoresGraphDefects: a graph defect is the caller's error.
// It is not retried, it never opens a circuit, and a half-open probe it
// took is released, so the next valid request for the key is let
// through.
func TestBreakerIgnoresGraphDefects(t *testing.T) {
	var defective atomic.Bool
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			calls.Add(1)
			if defective.Load() {
				return nil, fmt.Errorf("wrapped: %w", &graph.ValidationError{Code: graph.ErrShapeInference, Detail: "reshape"})
			}
			if opts.Batch == 10 {
				return nil, errors.New("backend down")
			}
			return stubRep(opts), nil
		},
		Retry:   RetryPolicy{Attempts: 3, Base: time.Millisecond},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }

	// Store a report, then fail on graph defects past the threshold.
	opts := baseOpts
	if _, err := s.ProfileCtx(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	defective.Store(true)
	for i := 0; i < 3; i++ {
		opts.Batch = i + 2
		before := calls.Load()
		_, err := s.ProfileCtx(context.Background(), opts)
		if _, ok := graph.AsValidationError(err); !ok {
			t.Fatalf("err = %v, want the graph defect", err)
		}
		if n := calls.Load() - before; n != 1 {
			t.Errorf("graph defect executed %d times, want 1 (no retry)", n)
		}
	}
	if opens, _, _, _ := s.breakers.snapshot(); opens != 0 {
		t.Fatalf("opens = %d after graph defects, want 0", opens)
	}

	// Open the circuit with a real failure; after the cooldown a graph
	// defect takes the half-open probe and must hand it back.
	defective.Store(false)
	opts.Batch = 10
	if _, err := s.ProfileCtx(context.Background(), opts); err == nil {
		t.Fatal("want failure")
	}
	now = now.Add(2 * time.Minute)
	defective.Store(true)
	opts.Batch = 11
	if _, err := s.ProfileCtx(context.Background(), opts); err == nil {
		t.Fatal("want the graph defect")
	}
	defective.Store(false)
	opts.Batch = 12
	if _, err := s.ProfileCtx(context.Background(), opts); err != nil {
		t.Fatalf("valid request after a defective probe: %v, want the probe slot released", err)
	}
}

// TestDefaultCapacityHoldsAThousandReports: with the default capacity
// the store holds 1,024 reports, so the first of 1,024 distinct
// requests is still a hit.
func TestDefaultCapacityHoldsAThousandReports(t *testing.T) {
	s := NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		return stubRep(opts), nil
	})
	opts := baseOpts
	for i := 0; i < 1024; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := s.ProfileCtx(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	opts.Seed = 1
	if _, out, err := s.ProfileOutcome(context.Background(), opts); err != nil || out != OutcomeHit {
		t.Fatalf("first of 1,024 keys: outcome %v err %v, want a hit", out, err)
	}
	if st := s.Stats(); st.Size != 1024 || st.Evictions != 0 || st.Capacity != DefaultCapacity {
		t.Errorf("stats = %+v, want 1,024 reports held and none evicted", st)
	}
}

func TestResilienceMetricsExposed(t *testing.T) {
	var n atomic.Int64
	s := NewWithConfig(Config{
		Capacity: 4,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if n.Add(1) == 1 {
				return nil, faults.Transient(errors.New("flaky"))
			}
			return stubRep(opts), nil
		},
		Retry:   RetryPolicy{Attempts: 2, Base: time.Millisecond},
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	reg := obs.NewRegistry()
	if err := RegisterMetrics(reg, "proofd", s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProfileCtx(context.Background(), baseOpts); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"proofd_session_retries_total 1",
		"proofd_session_retries_exhausted_total 0",
		"proofd_session_cache_size 1",
		"proofd_session_cache_capacity 4",
		"proofd_session_breaker_opens_total 0",
		"proofd_session_breaker_fast_fails_total 0",
		fmt.Sprintf("proofd_session_breaker_state{key=%q} 0", baseOpts.Model+"|"+baseOpts.Platform),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// One store and no stale serving: neither the second store's
	// gauge nor the stale-read counter is exposed.
	for _, gone := range []string{"stale_size", "stale_hits"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still expose %s\n%s", gone, text)
		}
	}
}
