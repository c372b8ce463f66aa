// Package parallel provides the small bounded-concurrency primitives the
// experiment sweeps use: independent profiling runs (different models,
// platforms, clock points) fan out across workers while preserving
// result order and failing fast on the first error. MapCtx honors
// context cancellation and deadlines, so a sweep can be abandoned
// mid-flight (Ctrl-C on the CLI, a timed-out service request) without
// leaking goroutines.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"proof/internal/obs"
)

// PanicError wraps a panic recovered from a worker function. Instead of
// crashing the whole process (a panic on a bare goroutine is fatal), the
// fan-out converts it into an error carrying the panic value and the
// worker's stack trace, and fails the sweep fast like any other error.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the worker goroutine's stack at the panic site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// call invokes f(ctx, item) converting a panic into a *PanicError.
func call[T, R any](ctx context.Context, f func(context.Context, T) (R, error), item T) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return f(ctx, item)
}

// traceCall is call wrapped in a per-item "worker" span (no-op when no
// tracer is installed): each fan-out item becomes one span carrying
// the worker and item indices, so a pipeline trace shows exactly how a
// sweep spread across workers. A worker panic is recorded as the
// span's error before being converted to a *PanicError.
func traceCall[T, R any](ctx context.Context, f func(context.Context, T) (R, error), item T, worker, idx int) (R, error) {
	wctx, sp := obs.Start(ctx, "worker")
	sp.SetAttrInt("worker", int64(worker))
	sp.SetAttrInt("item", int64(idx))
	r, err := call(wctx, f, item)
	sp.EndErr(err)
	return r, err
}

// MapCtx applies f to every item using at most workers goroutines,
// returning results in input order. The first error cancels the
// remaining work: in-flight calls finish (they can also observe the
// cancellation through the context passed to f), queued items are never
// started, and the first error is returned. Cancelling ctx aborts the
// fan-out the same way, returning ctx.Err() if no worker failed first.
// A panicking worker is captured as a *PanicError instead of crashing
// the process. workers <= 0 selects GOMAXPROCS.
func MapCtx[T, R any](ctx context.Context, items []T, workers int, f func(context.Context, T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	if workers <= 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := traceCall(ctx, f, it, 0, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	// inner is cancelled on the first failure so workers processing
	// long items can bail out early through the context they receive.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := range jobs {
				if inner.Err() != nil {
					continue // drain remaining jobs after an error or cancellation
				}
				r, err := traceCall(inner, f, items[idx], w, idx)
				if err != nil {
					setErr(err)
					continue
				}
				results[idx] = r
			}
		}(w)
	}
dispatch:
	for i := range items {
		select {
		case jobs <- i:
		case <-inner.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	// No worker failed: if the fan-out still ended early, the caller's
	// context was cancelled.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
