package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Admission errors. Handlers map ErrQueueFull and ErrQueueTimeout to
// 429 with a Retry-After hint; a context error means the client is gone
// and nothing useful can be written.
var (
	// ErrQueueFull: the wait queue is at capacity; admitting another
	// waiter would only grow latency without growing throughput.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrQueueTimeout: the request waited its full queue budget without
	// an execution slot freeing up.
	ErrQueueTimeout = errors.New("server: admission queue wait timed out")
)

// admission bounds the number of concurrently executing profile
// requests (slots) plus the number of requests allowed to wait for a
// slot (queue). Work beyond both bounds is rejected immediately —
// load-shedding at the door keeps tail latency bounded under overload
// instead of letting every client time out.
type admission struct {
	slots     chan struct{}
	maxQueue  int64
	queueWait time.Duration

	inflight  atomic.Int64
	queued    atomic.Int64
	highWater atomic.Int64 // max observed inflight; test + metrics hook
	rejected  atomic.Int64 // lifetime 429 count

	// acquired, when non-nil, is invoked with the post-acquire inflight
	// count — a test hook for asserting the concurrency bound from
	// inside the critical region.
	acquired func(inflight int64)
}

func newAdmission(maxInflight, maxQueue int, queueWait time.Duration) *admission {
	return &admission{
		slots:     make(chan struct{}, maxInflight),
		maxQueue:  int64(maxQueue),
		queueWait: queueWait,
	}
}

// acquire blocks until an execution slot is free, the queue budget
// expires, or ctx is done. On success the caller must release().
func (a *admission) acquire(ctx context.Context) error {
	// Fast path: free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		a.admitted()
		return nil
	default:
	}

	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return ErrQueueFull
	}
	defer a.queued.Add(-1)

	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted()
		return nil
	case <-timer.C:
		a.rejected.Add(1)
		return ErrQueueTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) admitted() {
	n := a.inflight.Add(1)
	for {
		hw := a.highWater.Load()
		if n <= hw || a.highWater.CompareAndSwap(hw, n) {
			break
		}
	}
	if a.acquired != nil {
		a.acquired(n)
	}
}

func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.slots
}
