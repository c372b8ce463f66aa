package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // "b" becomes the victim
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	c.Put("a", 10) // an update refreshes recency without evicting
	c.Put("d", 4)
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) after update = %d, %v", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c should have been evicted by d")
	}
	want := Stats{Hits: 2, Misses: 2, Evictions: 2, Len: 2, Weight: 2, Cap: 2}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// weighLen weighs a string by its length, so a test can give an entry
// any weight.
func weighLen(s string) int { return len(s) }

// keys returns the cached keys from most to least recently used.
func (c *LRU[K, V]) keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []K
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.key)
	}
	return out
}

func TestWeightedEvictsInRecencyOrder(t *testing.T) {
	c := NewWeighted[string, string](10, weighLen)
	c.Put("a", "aaa")
	c.Put("b", "bbb")
	c.Put("c", "ccc")
	c.Get("a") // "b" is now the least recently used
	c.Put("d", "dddd")
	// 13 > 10: "b" leaves first, and then the weight fits.
	if got := fmt.Sprint(c.keys()); got != "[d a c]" {
		t.Fatalf("after one eviction: keys %s, want [d a c]", got)
	}
	c.Put("e", "eeeeee")
	// 16 > 10: "c", then "a" leave in recency order, and "d" stays.
	if got := fmt.Sprint(c.keys()); got != "[e d]" {
		t.Fatalf("after a heavy insert: keys %s, want [e d]", got)
	}
	want := Stats{Hits: 1, Evictions: 3, Len: 2, Weight: 10, Cap: 10}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestWeightedRePutReweighs(t *testing.T) {
	c := NewWeighted[string, string](6, weighLen)
	c.Put("a", "a")
	c.Put("b", "b")
	c.Put("a", "aaaa") // 4 + 1 fits: nothing leaves
	if st := c.Stats(); st.Weight != 5 || st.Len != 2 || st.Evictions != 0 {
		t.Fatalf("after growing a: %+v", st)
	}
	c.Put("b", "bbb") // 4 + 3 > 6: "a", now the older entry, leaves
	if v, ok := c.Get("a"); ok {
		t.Fatalf("a survived: %q", v)
	}
	c.Put("b", "") // a weight below 1 counts as 1
	if st := c.Stats(); st.Weight != 1 || st.Len != 1 || st.Evictions != 1 {
		t.Fatalf("after shrinking b: %+v", st)
	}
}

func TestWeightedTooHeavyNotKept(t *testing.T) {
	c := NewWeighted[string, string](4, weighLen)
	c.Put("a", "aa")
	c.Put("b", "bb")
	c.Put("h", "hhhhh") // heavier than the capacity: dropped, nothing else evicted
	if _, ok := c.Get("h"); ok {
		t.Fatal("an entry heavier than the capacity was kept")
	}
	if got := fmt.Sprint(c.keys()); got != "[b a]" {
		t.Fatalf("keys %s, want [b a]: lighter entries were evicted for an entry that cannot fit", got)
	}
	c.Put("a", "aaaaa") // a re-Put too heavy to keep drops the old value
	if _, ok := c.Get("a"); ok {
		t.Fatal("a re-Put too heavy to keep left the old value cached")
	}
	want := Stats{Misses: 2, Evictions: 2, Len: 1, Weight: 2, Cap: 4}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	v, out, err := c.Do(context.Background(), "d", func() (string, error) { return "ddddd", nil })
	if v != "ddddd" || out != Miss || err != nil {
		t.Fatalf("Do of a too-heavy value: %q %v %v, want it returned uncached", v, out, err)
	}
	if st := c.Stats(); st.Len != 1 || st.Weight != 2 || st.Evictions != 3 {
		t.Fatalf("after a too-heavy Do: %+v", st)
	}
}

func TestDoDedupsAndNeverCachesErrors(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 8

	leaderOut := make(chan Outcome, 1)
	go func() {
		_, out, _ := c.Do(ctx, "k", func() (int, error) {
			calls.Add(1)
			<-release
			return 0, errors.New("boom")
		})
		leaderOut <- out
	}()
	waitFor(t, "the leader", func() bool { return c.Stats().Inflight == 1 })
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	outs := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i], errs[i] = c.Do(ctx, "k", func() (int, error) {
				calls.Add(1)
				return 1, nil
			})
		}(i)
	}
	waitFor(t, "the waiters", func() bool { return c.Stats().Dedups == waiters })
	close(release)
	wg.Wait()
	if out := <-leaderOut; out != Miss {
		t.Errorf("leader outcome = %v, want miss", out)
	}
	for i := range errs {
		if outs[i] != Dedup || errs[i] == nil || errs[i].Error() != "boom" {
			t.Errorf("waiter %d: outcome %v err %v, want dedup with the leader's error", i, outs[i], errs[i])
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	// The failure was not cached: the next caller leads afresh.
	if v, out, err := c.Do(ctx, "k", func() (int, error) { return 7, nil }); v != 7 || out != Miss || err != nil {
		t.Fatalf("after failure: %d %v %v, want a fresh miss", v, out, err)
	}
	want := Stats{Misses: 2, Dedups: waiters, Failures: 1, Len: 1, Weight: 1, Cap: 4}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestDoWaiterLeavesOnCancel(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (int, error) {
			<-release
			return 1, nil
		})
	}()
	waitFor(t, "the leader", func() bool { return c.Stats().Inflight == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, out, err := c.Do(ctx, "k", func() (int, error) {
		t.Error("a waiter ran fn")
		return 0, nil
	}); out != Dedup || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v %v", out, err)
	}
	close(release)
	<-done
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("leader result not cached after the waiter left: %d %v", v, ok)
	}
}

// TestDoPanicReleasesKey: a leader whose fn panics must release its
// key. Without that, every later Do for the key waits on a call nobody
// finishes, and Inflight stays at 1.
func TestDoPanicReleasesKey(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			<-release
			panic("kaboom")
		})
	}()
	waitFor(t, "the leader", func() bool { return c.Stats().Inflight == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (int, error) { return 0, nil })
		waiterErr <- err
	}()
	waitFor(t, "the waiter", func() bool { return c.Stats().Dedups == 1 })
	close(release)

	if r := <-recovered; r != "kaboom" {
		t.Errorf("leader recovered %v, want the original panic value", r)
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("waiter err = %v, want an error naming the panic", err)
	}
	if st := c.Stats(); st.Inflight != 0 || st.Len != 0 || st.Failures != 1 {
		t.Fatalf("after panic: %+v, want nothing in flight or cached and one failure", st)
	}
	if v, out, err := c.Do(ctx, "k", func() (int, error) { return 3, nil }); v != 3 || out != Miss || err != nil {
		t.Fatalf("after panic: %d %v %v, want a fresh miss", v, out, err)
	}
}

// TestResetKeepsCountersAndInflight: Reset empties the LRU without
// counting evictions and keeps the lifetime counters. A computation in
// flight across it still answers its leader, but caches nothing, so
// neither the old entry nor the in-flight value hits afterwards.
func TestResetKeepsCountersAndInflight(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1)
	c.Get("a")
	release := make(chan struct{})
	type led struct {
		v   int
		out Outcome
		err error
	}
	done := make(chan led, 1)
	go func() {
		v, out, err := c.Do(context.Background(), "b", func() (int, error) {
			<-release
			return 2, nil
		})
		done <- led{v, out, err}
	}()
	waitFor(t, "the leader", func() bool { return c.Stats().Inflight == 1 })
	c.Reset()
	if st := c.Stats(); st.Len != 0 || st.Weight != 0 {
		t.Fatalf("stats after Reset = %+v, want nothing cached", st)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("an entry cached before Reset hit after it")
	}
	close(release)
	if got := <-done; got.v != 2 || got.out != Miss || got.err != nil {
		t.Fatalf("leader across Reset: %d %v %v, want its own value as a miss", got.v, got.out, got.err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("a value computed before Reset hit after it")
	}
	want := Stats{Hits: 1, Misses: 3, Cap: 4}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v: lifetime counters kept, nothing cached or evicted", st, want)
	}
}

// TestResetRacesDo drives Reset against Do from 8 goroutines. epoch
// counts the Resets done; it moves with each Reset under mu, so a
// value's epoch is at least the generation its computation started in.
// No hit may return a value older than the epoch its caller saw before
// calling Do.
func TestResetRacesDo(t *testing.T) {
	const goroutines, ops, keys = 8, 300, 6
	c := New[int, int](keys)
	var mu sync.RWMutex
	epoch := 0
	readEpoch := func() int {
		mu.RLock()
		defer mu.RUnlock()
		return epoch
	}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*5 + i) % keys
				if g == 0 && i%8 == 0 {
					mu.Lock()
					epoch++
					c.Reset()
					mu.Unlock()
					continue
				}
				seen := readEpoch()
				v, out, _ := c.Do(context.Background(), k, func() (int, error) {
					if i%5 == 0 {
						return 0, fmt.Errorf("key %d fails", k)
					}
					return readEpoch(), nil
				})
				if out == Hit {
					hits.Add(1)
					if v < seen {
						t.Errorf("key %d: a hit served a value of epoch %d after Reset %d", k, v, seen)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions != 0 || st.Inflight != 0 || st.Len != st.Weight || st.Weight > keys {
		t.Errorf("after the race: %+v", st)
	}
	if hits.Load() == 0 {
		t.Error("no Do hit: the race exercised nothing")
	}
}

// TestHitPathAllocs pins the //lint:hotpath contract: a hit through
// Get or Do allocates nothing, weighted or not.
func TestHitPathAllocs(t *testing.T) {
	ctx := context.Background()
	fn := func() (int, error) { return 0, nil }
	for name, c := range map[string]*LRU[string, int]{
		"New":         New[string, int](4),
		"NewWeighted": NewWeighted[string](4, func(v int) int { return v }),
	} {
		c.Put("k", 2)
		if n := testing.AllocsPerRun(100, func() { c.Get("k") }); n != 0 {
			t.Errorf("%s: Get hit: %v allocs, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.Do(ctx, "k", fn) }); n != 0 {
			t.Errorf("%s: Do hit: %v allocs, want 0", name, n)
		}
	}
}

// TestConcurrentMixedOps drives every method from many goroutines over
// a key space larger than the capacity, for the race detector, then
// checks that the counters balance.
func TestConcurrentMixedOps(t *testing.T) {
	const goroutines, ops, keys = 8, 300, 12
	c := New[int, int](4)
	var wg sync.WaitGroup
	var dos, gets atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*7 + i) % keys
				switch i % 5 {
				case 0:
					c.Put(k, k)
				case 1:
					gets.Add(1)
					if v, ok := c.Get(k); ok && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case 2:
					c.Stats()
				case 3:
					if i%60 == 3 {
						c.Reset()
					}
				default:
					dos.Add(1)
					v, _, err := c.Do(context.Background(), k, func() (int, error) {
						if k%4 == 0 {
							return 0, fmt.Errorf("key %d fails", k)
						}
						return k, nil
					})
					if err == nil && v != k {
						t.Errorf("Do(%d) = %d", k, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Dedups != dos.Load()+gets.Load() {
		t.Errorf("counters %+v do not balance %d lookups", st, dos.Load()+gets.Load())
	}
	if st.Inflight != 0 || st.Len > st.Weight || st.Weight > st.Cap || st.Weight != len(c.keys()) {
		t.Errorf("after the storm: %+v", st)
	}
}
