package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapCtxOrderPreservation checks that results come back in input
// order even when completion order is scrambled by contention.
func TestMapCtxOrderPreservation(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	got, err := MapCtx(context.Background(), items, 16, func(_ context.Context, v int) (int, error) {
		// Earlier items finish later: reverse the natural completion
		// order so a result-placement bug cannot hide.
		time.Sleep(time.Duration((500-v)%7) * 100 * time.Microsecond)
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*i)
		}
	}
}

// TestMapCtxFailFast checks that queued items are never started once a
// worker has failed: only the jobs already grabbed by a worker may run.
func TestMapCtxFailFast(t *testing.T) {
	const items, workers = 200, 4
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := MapCtx(context.Background(), make([]int, items), workers, func(_ context.Context, _ int) (int, error) {
		n := calls.Add(1)
		if n == 1 {
			return 0, sentinel
		}
		time.Sleep(5 * time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if c := calls.Load(); c > items/2 {
		t.Fatalf("fail-fast leak: %d of %d items ran after the first error", c, items)
	}
}

// TestMapCtxFirstErrorWins checks that a failed fan-out returns an
// error, not partial results.
func TestMapCtxFirstErrorWins(t *testing.T) {
	res, err := MapCtx(context.Background(), []int{1, 2, 3, 4}, 2, func(_ context.Context, v int) (int, error) {
		if v == 3 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if res != nil {
		t.Fatalf("want nil results on error, got %v", res)
	}
}

// TestMapCtxPanicPropagation checks that a panicking worker surfaces as
// a *PanicError instead of crashing the process, in both the serial and
// the parallel paths.
func TestMapCtxPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(context.Background(), []int{0, 1, 2, 3}, workers, func(_ context.Context, v int) (int, error) {
			if v == 2 {
				panic("kaboom")
			}
			return v, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "kaboom" {
			t.Fatalf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: missing stack trace", workers)
		}
	}
}

// TestMapCtxCancellationMidSweep cancels the context while workers are
// blocked mid-item and checks the fan-out unwinds promptly with
// ctx.Err(), without running the queued remainder.
func TestMapCtxCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const items, workers = 100, 4
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = MapCtx(ctx, make([]int, items), workers, func(ctx context.Context, _ int) (int, error) {
			started.Add(1)
			once.Do(func() { close(release) }) // first item is in flight
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				return 0, errors.New("worker was not cancelled")
			}
		})
	}()
	<-release
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MapCtx did not unwind after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s > workers {
		t.Fatalf("%d items started after cancellation (max in-flight %d)", s, workers)
	}
}

// TestMapCtxDeadline checks deadline expiry behaves like cancellation.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := MapCtx(ctx, make([]int, 50), 4, func(ctx context.Context, _ int) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return 0, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMapCtxPreCancelled checks that an already-cancelled context never
// runs any item.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(ctx, make([]int, 20), workers, func(_ context.Context, _ int) (int, error) {
			calls.Add(1)
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// The parallel path may hand at most one batch of jobs to workers
	// racing with the Done check; in practice nothing should run.
	if c := calls.Load(); c > 8 {
		t.Fatalf("%d items ran under a pre-cancelled context", c)
	}
}

// TestMapCtxEmptyAndSerial covers the degenerate paths.
func TestMapCtxEmptyAndSerial(t *testing.T) {
	res, err := MapCtx(context.Background(), []int{}, 4, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty: res=%v err=%v", res, err)
	}
	res, err = MapCtx(context.Background(), []int{7}, 1, func(_ context.Context, v int) (int, error) {
		return v + 1, nil
	})
	if err != nil || len(res) != 1 || res[0] != 8 {
		t.Fatalf("serial: res=%v err=%v", res, err)
	}
}
