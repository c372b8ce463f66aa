package core

import (
	"context"
	"fmt"
	"math"
	"time"
)

// RunStats aggregates repeated profiling runs — real profilers report
// run-to-run variance, and PRoof's simulated runtimes carry a
// deterministic per-seed jitter that emulates it.
type RunStats struct {
	// Runs is the number of profiling runs.
	Runs int `json:"runs"`
	// MeanLatency, MinLatency and MaxLatency summarize the end-to-end
	// latency distribution.
	MeanLatency time.Duration `json:"mean_latency_ns"`
	MinLatency  time.Duration `json:"min_latency_ns"`
	MaxLatency  time.Duration `json:"max_latency_ns"`
	// StdDev is the standard deviation of the latency.
	StdDev time.Duration `json:"stddev_ns"`
	// CV is the coefficient of variation (stddev/mean).
	CV float64 `json:"cv"`
	// Best is the report of the fastest run (profilers conventionally
	// report best-of-N).
	Best *Report `json:"best"`
}

// ProfileRunsCtx profiles the same configuration `runs` times through
// profile (ProfileCtx, or a caching session's ProfileCtx) with
// different jitter seeds and aggregates the latency statistics. Each
// run varies the jitter seed, so distinct runs are distinct cache
// entries; a repeated best-of-N over the same base seed is fully
// cache-served. ctx is checked before each run and passed to profile.
func ProfileRunsCtx(ctx context.Context, opts Options, runs int, profile ProfileFunc) (*RunStats, error) {
	if runs < 1 {
		return nil, fmt.Errorf("core: runs must be >= 1")
	}
	stats := &RunStats{Runs: runs}
	var latencies []float64
	for i := 0; i < runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := opts
		o.Seed = opts.Seed + uint64(i)
		r, err := profile(ctx, o)
		if err != nil {
			return nil, err
		}
		lat := r.TotalLatency
		latencies = append(latencies, lat.Seconds())
		if stats.Best == nil || lat < stats.Best.TotalLatency {
			stats.Best = r
		}
		if stats.MinLatency == 0 || lat < stats.MinLatency {
			stats.MinLatency = lat
		}
		if lat > stats.MaxLatency {
			stats.MaxLatency = lat
		}
	}
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	mean := sum / float64(runs)
	var varSum float64
	for _, l := range latencies {
		varSum += (l - mean) * (l - mean)
	}
	std := math.Sqrt(varSum / float64(runs))
	stats.MeanLatency = time.Duration(mean * float64(time.Second))
	stats.StdDev = time.Duration(std * float64(time.Second))
	if mean > 0 {
		stats.CV = std / mean
	}
	return stats, nil
}
