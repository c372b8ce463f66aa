package core

import (
	"context"
	"fmt"
	"time"
)

// BatchPoint is one point of a batch-size sweep.
type BatchPoint struct {
	// Batch is the batch size.
	Batch int `json:"batch"`
	// Latency is the per-inference latency at that batch.
	Latency time.Duration `json:"latency_ns"`
	// Throughput is samples per second.
	Throughput float64 `json:"throughput"`
}

// DefaultBatchCandidates are the powers of two the sweep tries.
var DefaultBatchCandidates = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// OptimalBatchCtx sweeps batch sizes through profile (ProfileCtx,
// or a caching session's ProfileCtx so repeated sweeps over overlapping
// batch grids reuse cached points) and returns the one that maximizes
// throughput — how the paper selects "the batch size reached maximum
// throughput" for Table 5. The sweep stops early once throughput
// saturates (two consecutive candidates within 1%). It checks ctx
// before each batch point and aborts with ctx.Err() when cancelled,
// returning the points measured so far.
func OptimalBatchCtx(ctx context.Context, opts Options, candidates []int, profile ProfileFunc) (int, []BatchPoint, error) {
	if candidates == nil {
		candidates = DefaultBatchCandidates
	}
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("core: no batch candidates")
	}
	var points []BatchPoint
	best := candidates[0]
	bestTP := 0.0
	prevTP := 0.0
	for _, b := range candidates {
		if err := ctx.Err(); err != nil {
			return 0, points, err
		}
		o := opts
		o.Batch = b
		r, err := profile(ctx, o)
		if err != nil {
			return 0, points, fmt.Errorf("core: batch sweep at %d: %w", b, err)
		}
		p := BatchPoint{Batch: b, Latency: r.TotalLatency, Throughput: r.Throughput}
		points = append(points, p)
		if p.Throughput > bestTP {
			bestTP = p.Throughput
			best = b
		}
		if prevTP > 0 && p.Throughput < prevTP*1.01 && len(points) >= 3 {
			break // saturated
		}
		prevTP = p.Throughput
	}
	return best, points, nil
}
