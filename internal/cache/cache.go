// Package cache is the one memoizing primitive behind PRoof's caches:
// a bounded, mutex-guarded LRU whose Do collapses concurrent misses of
// one key into a single computation (singleflight). Its bound is a
// total weight: every entry weighs 1 in an LRU from New, so the bound
// is an entry count, and NewWeighted takes a weight function. Reset
// empties the LRU, and no computation begun before it caches its
// result. The session report store, the zoo's admitted graphs and the
// memo store's reports (weighed by layer count) are all instances of it.
package cache

import (
	"context"
	"fmt"
	"sync"
)

// Outcome classifies how Do served a key.
type Outcome string

const (
	// Hit served a cached value.
	Hit Outcome = "hit"
	// Miss led a new computation.
	Miss Outcome = "miss"
	// Dedup joined a computation of the same key already in flight.
	Dedup Outcome = "dedup"
)

// Stats is a point-in-time snapshot of an LRU. Hits counts Get and Do
// calls served from the cache; Misses counts Get calls that found
// nothing and Do calls that led a computation; Dedups counts Do calls
// that joined one in flight; Failures counts led computations that
// returned an error or panicked (never cached); Evictions counts
// entries dropped by the capacity bound, an entry too heavy to keep
// included. These are lifetime totals that survive Reset. Len is the
// number of cached entries and Weight their total weight, Cap the
// capacity in weight and Inflight the number of computations running.
type Stats struct {
	Hits, Misses, Dedups, Failures, Evictions int64
	Len, Weight, Cap, Inflight                int
}

// node is one cached entry, linked into the recency list.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
	weight     int
}

// call is one in-flight computation that Do callers of its key wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	gen  uint64 // the LRU's generation when the computation started
}

// LRU is a bounded least-recently-used cache with singleflight
// computation of misses. All methods are safe for concurrent use; the
// zero value is not usable — construct with New or NewWeighted.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	items map[K]*node[K, V]
	root  node[K, V] // list sentinel: root.next is the most recent entry, root.prev the least
	calls map[K]*call[V]
	weigh func(V) int // nil: every entry weighs 1
	gen   uint64      // Reset moves it on; a computation begun in an older one caches nothing
	st    Stats       // counters, Weight and Cap; Len and Inflight are filled in by Stats
}

// New returns an empty LRU that holds at most capacity entries.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	return NewWeighted[K, V](capacity, nil)
}

// NewWeighted returns an empty LRU whose entries together weigh at
// most capacity. weigh gives a value's weight when it is cached;
// weights below 1 count as 1, and a nil weigh weighs every value 1, as
// New does.
func NewWeighted[K comparable, V any](capacity int, weigh func(V) int) *LRU[K, V] {
	c := &LRU[K, V]{items: make(map[K]*node[K, V]), calls: make(map[K]*call[V]), weigh: weigh}
	c.st.Cap = capacity
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns the value cached under key and marks it most recently
// used.
//
//lint:hotpath
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.hitLocked(key)
	if !ok {
		c.st.Misses++
	}
	return v, ok
}

// hitLocked is the hit path shared by Get and Do: it finds key's
// entry, marks it most recently used and counts the hit. c.mu must be
// held.
//
//lint:hotpath
func (c *LRU[K, V]) hitLocked(key K) (v V, ok bool) {
	n, ok := c.items[key]
	if !ok {
		return v, false
	}
	c.unlink(n)
	c.pushFront(n)
	c.st.Hits++
	return n.val, true
}

// Put caches val under key as the most recently used entry, weighed
// afresh, and evicts least recently used entries until the total
// weight fits the capacity. A value heavier than the whole capacity is
// not kept, and no other entry is evicted for it; a value it replaces
// is dropped too.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	c.putLocked(key, val)
	c.mu.Unlock()
}

func (c *LRU[K, V]) putLocked(key K, val V) {
	w := 1
	if c.weigh != nil {
		w = max(c.weigh(val), 1)
	}
	n, ok := c.items[key]
	if ok {
		c.unlink(n)
		c.st.Weight -= n.weight
	} else {
		n = &node[K, V]{key: key}
		c.items[key] = n
	}
	n.val, n.weight = val, w
	c.pushFront(n)
	c.st.Weight += w
	if w > c.st.Cap {
		c.evict(n)
		return
	}
	for c.st.Weight > c.st.Cap {
		c.evict(c.root.prev)
	}
}

// evict drops n from the cache and counts the eviction.
func (c *LRU[K, V]) evict(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.st.Weight -= n.weight
	c.st.Evictions++
}

func (c *LRU[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

func (c *LRU[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

// Do returns the value cached under key. Otherwise it joins the
// computation of key already in flight, or leads a new one by calling
// fn and caching its result. Errors are never cached: the leader's
// error goes to the waiters it has, and the next caller leads afresh.
// A waiter whose ctx ends returns ctx.Err() and leaves the leader
// running. A computation that began before a Reset answers its leader
// and waiters but caches nothing. If fn panics, Do releases key,
// caches nothing, hands the waiters an error naming the panic and
// re-panics in the leader.
func (c *LRU[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if v, ok := c.hitLocked(key); ok {
		c.mu.Unlock()
		return v, Hit, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.st.Dedups++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, Dedup, cl.err
		case <-ctx.Done():
			var zero V
			return zero, Dedup, ctx.Err()
		}
	}
	cl := &call[V]{done: make(chan struct{}), gen: c.gen}
	c.calls[key] = cl
	c.st.Misses++
	c.mu.Unlock()
	c.lead(key, cl, fn)
	return cl.val, Miss, cl.err
}

// lead runs fn for the call registered under key and releases the call
// on every exit — return, panic or runtime.Goexit — so a failed leader
// never strands its waiters or keeps key in flight.
func (c *LRU[K, V]) lead(key K, cl *call[V], fn func() (V, error)) {
	returned := false
	defer func() {
		r := recover() // nil after a return, and for runtime.Goexit
		if !returned {
			cl.err = fmt.Errorf("cache: computation panicked: %v", r)
		}
		c.mu.Lock()
		delete(c.calls, key)
		switch {
		case cl.err != nil:
			c.st.Failures++
		case cl.gen == c.gen:
			c.putLocked(key, cl.val)
		}
		c.mu.Unlock()
		close(cl.done)
		if r != nil {
			panic(r)
		}
	}()
	cl.val, cl.err = fn()
	returned = true
}

// Reset drops every cached entry; the drops are not evictions, and
// the counters survive. It also moves the generation on, so a
// computation in flight caches nothing when it finishes: no value
// begun before a Reset is a hit after it.
func (c *LRU[K, V]) Reset() {
	c.mu.Lock()
	clear(c.items)
	c.root.next, c.root.prev = &c.root, &c.root
	c.st.Weight = 0
	c.gen++
	c.mu.Unlock()
}

// Stats snapshots the counters and sizes.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Len, st.Inflight = len(c.items), len(c.calls)
	return st
}
