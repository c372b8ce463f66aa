package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"proof/internal/hardware"
	"proof/internal/obs"
	"proof/internal/parallel"
)

// PlatformResult is one row of a cross-platform sweep: the same model
// profiled on one platform at its default configuration.
type PlatformResult struct {
	// Platform is the platform key.
	Platform string `json:"platform"`
	// Supported is false when the platform cannot run the model: its
	// profile failed with ErrUnsupported (the coverage holes of Figure
	// 4). The remaining fields are then zero.
	Supported bool `json:"supported"`
	// Reason is the ErrUnsupported error's text for an unsupported row.
	Reason string `json:"reason,omitempty"`
	// Batch and DType echo the platform defaults used.
	Batch int    `json:"batch,omitempty"`
	DType string `json:"dtype,omitempty"`
	// Latency and Throughput summarize performance.
	Latency    time.Duration `json:"latency_ns,omitempty"`
	Throughput float64       `json:"throughput,omitempty"`
	// AttainedFLOPS and Bound characterize the roofline position.
	AttainedFLOPS float64 `json:"attained_flops,omitempty"`
	Bound         string  `json:"bound,omitempty"`
}

// PlatformSweepCtx profiles a model across every platform (the
// deployment question behind Figure 4: where does this model run best?)
// through profile: ProfileCtx, or a caching session's ProfileCtx so
// the session serves the sweep. Results are ordered by throughput,
// descending, with unsupported platforms last. A platform that fails
// with ErrUnsupported becomes an unsupported row; any other error fails
// the sweep. Cancelling ctx stops dispatching platforms and returns
// ctx.Err(); the per-platform runs receive the same context.
func PlatformSweepCtx(ctx context.Context, model string, mode Mode, profile ProfileFunc) (_ []PlatformResult, err error) {
	ctx, sp := obs.Start(ctx, "sweep")
	sp.SetAttr("model", model)
	sp.SetAttr("mode", string(mode))
	defer func() { sp.EndErr(err) }()
	if _, err := lookupModel(model); err != nil {
		return nil, err
	}
	// Every point names the model by its zoo key: the points share the
	// process's one admitted graph of it (see zooGraphs).
	platforms := hardware.List()
	sp.SetAttrInt("platforms", int64(len(platforms)))
	results, err := parallel.MapCtx(ctx, platforms, 0, func(ctx context.Context, p *hardware.Platform) (PlatformResult, error) {
		r, err := profile(ctx, Options{Model: model, Platform: p.Key, Mode: mode})
		if errors.Is(err, ErrUnsupported) {
			return PlatformResult{Platform: p.Key, Reason: err.Error()}, nil
		}
		if err != nil {
			return PlatformResult{}, err
		}
		return PlatformResult{
			Platform:      p.Key,
			Supported:     true,
			Batch:         r.Batch,
			DType:         r.DType,
			Latency:       r.TotalLatency,
			Throughput:    r.Throughput,
			AttainedFLOPS: r.EndToEnd.FLOPS,
			Bound:         r.EndToEnd.Bound,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Supported != results[j].Supported {
			return results[i].Supported
		}
		return results[i].Throughput > results[j].Throughput
	})
	return results, nil
}
