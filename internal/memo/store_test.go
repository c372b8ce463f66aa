package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proof/internal/faults"
)

func sigN(n int) Signature {
	return UnitSignature(fmt.Sprintf("content-%d", n), baseBinding())
}

func unitN(n int) Unit {
	return Unit{
		Latency:        time.Duration(n+1) * time.Millisecond,
		ComputeTime:    time.Duration(n+1) * 600 * time.Microsecond,
		MemoryTime:     time.Duration(n+1) * 400 * time.Microsecond,
		ExecutionBound: "compute",
		FLOP:           int64(n+1) * 1000,
		Bytes:          int64(n+1) * 100,
		Category:       "conv",
	}
}

func mustCompute(t *testing.T, s *Store, n int) {
	t.Helper()
	u, out, err := s.GetOrCompute(context.Background(), sigN(n), func() (Unit, error) {
		return unitN(n), nil
	})
	if err != nil || out != OutcomeMiss || u != unitN(n) {
		t.Fatalf("compute %d: unit=%+v outcome=%s err=%v", n, u, out, err)
	}
}

func TestStoreHitAndMiss(t *testing.T) {
	s := NewStore(StoreConfig{})
	mustCompute(t, s, 0)
	u, out, err := s.GetOrCompute(context.Background(), sigN(0), func() (Unit, error) {
		t.Fatal("compute ran on a hit")
		return Unit{}, nil
	})
	if err != nil || out != OutcomeHit || u != unitN(0) {
		t.Fatalf("hit: unit=%+v outcome=%s err=%v", u, out, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Units != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio: %v", got)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(StoreConfig{UnitCapacity: 3})
	for i := 0; i < 3; i++ {
		mustCompute(t, s, i)
	}
	// Touch unit 0 so unit 1 is the LRU victim.
	if _, ok := s.Unit(sigN(0)); !ok {
		t.Fatal("unit 0 missing before eviction")
	}
	mustCompute(t, s, 3)
	if _, ok := s.Unit(sigN(1)); ok {
		t.Fatal("LRU victim (unit 1) still cached")
	}
	for _, n := range []int{0, 2, 3} {
		if _, ok := s.Unit(sigN(n)); !ok {
			t.Fatalf("unit %d evicted out of LRU order", n)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Units != 3 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestStoreErrorNeverCached(t *testing.T) {
	s := NewStore(StoreConfig{})
	boom := errors.New("profiling failed")
	_, out, err := s.GetOrCompute(context.Background(), sigN(0), func() (Unit, error) {
		return Unit{}, boom
	})
	if !errors.Is(err, boom) || out != OutcomeMiss {
		t.Fatalf("outcome=%s err=%v", out, err)
	}
	if _, ok := s.Unit(sigN(0)); ok {
		t.Fatal("failed computation was cached")
	}
	if st := s.Stats(); st.Failures != 1 || st.Units != 0 {
		t.Fatalf("stats after failure: %+v", st)
	}
	// The next caller retries fresh and the success is cached.
	mustCompute(t, s, 0)
	if _, ok := s.Unit(sigN(0)); !ok {
		t.Fatal("retry after failure was not cached")
	}
}

// TestStoreFaultScheduleNeverCaches drives the compute function through
// the chaos injector that proofd uses on the live pipeline: under an
// injected error schedule, every failed unit profile must stay
// uncached, every successful one must be cached, and the failure
// counter must match the injector's own accounting exactly.
func TestStoreFaultScheduleNeverCaches(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 42, ErrorRate: 0.5, TransientShare: 0.5})
	profile := faults.Wrap(inj, func(_ context.Context, n int) (Unit, error) {
		return unitN(n), nil
	})
	s := NewStore(StoreConfig{})
	var failed, succeeded int
	for n := 0; n < 64; n++ {
		_, _, err := s.GetOrCompute(context.Background(), sigN(n), func() (Unit, error) {
			return profile(context.Background(), n)
		})
		cached, ok := s.Unit(sigN(n))
		if err != nil {
			failed++
			if ok {
				t.Fatalf("unit %d: failed profile was cached", n)
			}
		} else {
			succeeded++
			if !ok || cached != unitN(n) {
				t.Fatalf("unit %d: successful profile not cached intact", n)
			}
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("fault schedule degenerate: %d failed, %d succeeded", failed, succeeded)
	}
	st := s.Stats()
	if st.Failures != int64(failed) {
		t.Fatalf("failure counter %d != observed failures %d", st.Failures, failed)
	}
	if st.Units != succeeded {
		t.Fatalf("cached units %d != observed successes %d", st.Units, succeeded)
	}
}

func TestStoreSingleflight(t *testing.T) {
	s := NewStore(StoreConfig{})
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]Outcome, waiters+1)
	errs := make([]error, waiters+1)
	units := make([]Unit, waiters+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		units[0], results[0], errs[0] = s.GetOrCompute(context.Background(), sigN(0), func() (Unit, error) {
			computes.Add(1)
			close(started)
			<-release
			return unitN(0), nil
		})
	}()
	<-started // leader is inside compute; everyone else must dedup
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			units[i], results[i], errs[i] = s.GetOrCompute(context.Background(), sigN(0), func() (Unit, error) {
				computes.Add(1)
				return unitN(0), nil
			})
		}(i)
	}
	// Let the waiters reach the dedup wait before releasing the leader.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Dedups < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters deduped", s.Stats().Dedups, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if results[0] != OutcomeMiss {
		t.Fatalf("leader outcome %s", results[0])
	}
	for i := 1; i <= waiters; i++ {
		if errs[i] != nil || results[i] != OutcomeDedup || units[i] != unitN(0) {
			t.Fatalf("waiter %d: unit=%+v outcome=%s err=%v", i, units[i], results[i], errs[i])
		}
	}
}

func TestStoreDedupWaiterCancellation(t *testing.T) {
	s := NewStore(StoreConfig{})
	started := make(chan struct{})
	release := make(chan struct{})
	go s.GetOrCompute(context.Background(), sigN(0), func() (Unit, error) {
		close(started)
		<-release
		return unitN(0), nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := s.GetOrCompute(ctx, sigN(0), func() (Unit, error) {
		t.Error("cancelled waiter ran compute")
		return Unit{}, nil
	})
	if !errors.Is(err, context.Canceled) || out != OutcomeDedup {
		t.Fatalf("cancelled waiter: outcome=%s err=%v", out, err)
	}
	close(release)
	// The leader's result must still land despite the waiter bailing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := s.Unit(sigN(0)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader result never cached after waiter cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreConcurrentSweeps is the seeded concurrency suite: N
// goroutines sweep overlapping signature sets against one shared store
// (run under -race -count=2 in CI). Each unique signature must be
// computed exactly once, every returned unit must be the complete value
// for its signature — never a partial or cross-contaminated entry —
// and the counters must balance.
func TestStoreConcurrentSweeps(t *testing.T) {
	const (
		goroutines = 16
		sigs       = 40
		rounds     = 3
	)
	s := NewStore(StoreConfig{})
	computes := make([]atomic.Int64, sigs)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Overlapping sweeps: every goroutine walks the whole
				// signature ring, each from its own starting offset.
				for i := 0; i < sigs; i++ {
					n := (g + i) % sigs
					u, _, err := s.GetOrCompute(context.Background(), sigN(n), func() (Unit, error) {
						computes[n].Add(1)
						time.Sleep(50 * time.Microsecond) // widen the dedup window
						return unitN(n), nil
					})
					if err != nil {
						t.Errorf("goroutine %d sig %d: %v", g, n, err)
						return
					}
					if u != unitN(n) {
						t.Errorf("goroutine %d sig %d: partial or foreign unit %+v", g, n, u)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for n := range computes {
		if c := computes[n].Load(); c != 1 {
			t.Errorf("sig %d computed %d times, want exactly 1", n, c)
		}
	}
	st := s.Stats()
	if st.Units != sigs {
		t.Fatalf("units cached %d, want %d", st.Units, sigs)
	}
	total := goroutines * rounds * sigs
	if got := st.Hits + st.Misses + st.Dedups; got != int64(total) {
		t.Fatalf("counter balance: hits+misses+dedups = %d, want %d lookups", got, total)
	}
	if st.Misses != sigs {
		t.Fatalf("misses %d, want %d (one per unique signature)", st.Misses, sigs)
	}
}

func TestStorePlans(t *testing.T) {
	s := NewStore(StoreConfig{PlanCapacity: 2})
	if _, ok := s.Plan("a"); ok {
		t.Fatal("phantom plan")
	}
	s.PutPlan("a", &Plan{Model: "ma"})
	s.PutPlan("b", &Plan{Model: "mb"})
	p, ok := s.Plan("a") // touch "a": "b" becomes the LRU victim
	if !ok || p.Model != "ma" {
		t.Fatalf("plan a: %+v ok=%v", p, ok)
	}
	s.PutPlan("c", &Plan{Model: "mc"})
	if _, ok := s.Plan("b"); ok {
		t.Fatal("plan LRU victim still cached")
	}
	st := s.Stats()
	if st.PlanEvictions != 1 || st.Plans != 2 {
		t.Fatalf("plan stats: %+v", st)
	}
}
