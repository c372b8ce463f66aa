// Package cache is the one memoizing primitive behind PRoof's caches:
// a bounded, mutex-guarded LRU whose Do collapses concurrent misses of
// one key into a single computation (singleflight). The session report
// cache, its last-known-good store and the memo store's unit and plan
// caches are all instances of it.
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
// entries dropped by the capacity bound. These are lifetime totals
// that survive Reset. Len is the number of cached entries, Cap the
// capacity and Inflight the number of computations running.
type Stats struct {
	Hits, Misses, Dedups, Failures, Evictions int64
	Len, Cap, Inflight                        int
}

// node is one cached entry, linked into the recency list.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// call is one in-flight computation that Do callers of its key wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// LRU is a bounded least-recently-used cache with singleflight
// computation of misses. All methods are safe for concurrent use; the
// zero value is not usable — construct with New.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	items map[K]*node[K, V]
	root  node[K, V] // list sentinel: root.next is the most recent entry, root.prev the least
	calls map[K]*call[V]
	st    Stats // counters and Cap; Len and Inflight are filled in by Stats
}

// New returns an empty LRU that holds at most capacity entries.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	c := &LRU[K, V]{items: make(map[K]*node[K, V]), calls: make(map[K]*call[V])}
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

// Put caches val under key as the most recently used entry, evicting
// the least recently used entry beyond capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	c.putLocked(key, val)
	c.mu.Unlock()
}

func (c *LRU[K, V]) putLocked(key K, val V) {
	if n, ok := c.items[key]; ok {
		n.val = val
		c.unlink(n)
		c.pushFront(n)
		return
	}
	n := &node[K, V]{key: key, val: val}
	c.items[key] = n
	c.pushFront(n)
	if len(c.items) > c.st.Cap {
		oldest := c.root.prev
		c.unlink(oldest)
		delete(c.items, oldest.key)
		c.st.Evictions++
	}
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
// running. If fn panics, Do releases key, caches nothing, hands the
// waiters an error naming the panic and re-panics in the leader.
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
	cl := &call[V]{done: make(chan struct{})}
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
		if cl.err == nil {
			c.putLocked(key, cl.val)
		} else {
			c.st.Failures++
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

// Reset drops every cached entry. The counters survive, and
// computations in flight are unaffected: they cache their results when
// they finish.
func (c *LRU[K, V]) Reset() {
	c.mu.Lock()
	clear(c.items)
	c.root.next, c.root.prev = &c.root, &c.root
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
