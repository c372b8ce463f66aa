package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapPreservesOrder(t *testing.T) {
	f := func(n uint8) bool {
		items := make([]int, int(n))
		for i := range items {
			items[i] = i
		}
		out, err := MapCtx(context.Background(), items, 4, func(_ context.Context, x int) (int, error) { return x * x, nil })
		if err != nil {
			return false
		}
		for i, v := range out {
			if v != i*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMapPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := MapCtx(context.Background(), items, 3, func(_ context.Context, x int) (int, error) {
		if x == 4 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	items := make([]int, 64)
	_, err := MapCtx(context.Background(), items, workers, func(context.Context, int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Busy-yield a little to let others run.
		for i := 0; i < 1000; i++ {
			_ = i
		}
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestMapEdgeCases(t *testing.T) {
	out, err := MapCtx(context.Background(), []int(nil), 4, func(context.Context, int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Error("empty input")
	}
	// Single worker path.
	out, err = MapCtx(context.Background(), []int{1, 2, 3}, 1, func(_ context.Context, x int) (int, error) { return x + 1, nil })
	if err != nil || out[2] != 4 {
		t.Error("serial path")
	}
	// workers <= 0 defaults.
	out, err = MapCtx(context.Background(), []int{5}, 0, func(_ context.Context, x int) (int, error) { return x, nil })
	if err != nil || out[0] != 5 {
		t.Error("default workers")
	}
}
