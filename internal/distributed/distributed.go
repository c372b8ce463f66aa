// Package distributed explores the paper's stated future work (§5):
// adapting PRoof to distributed environments. It simulates data-parallel
// inference serving — a global batch split across N identical devices,
// with host-link transfers for input scatter and output gather — and
// reports per-device rooflines plus scaling efficiency. The analysis
// reuses the single-device pipeline unchanged: data parallelism at the
// serving layer composes with per-device profiling.
package distributed

import (
	"context"
	"fmt"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
)

// Options configures a data-parallel profiling run.
type Options struct {
	// Model and Platform select the workload and device type.
	Model    string
	Platform string
	// Devices is the number of identical devices.
	Devices int
	// GlobalBatch is the total batch split evenly across devices.
	GlobalBatch int
	// DType is the inference data type (invalid = platform default).
	DType graph.DataType
	// HostLinkBW overrides the host interconnect bandwidth in B/s
	// (0 = PCIe 4.0 x16 effective, 25 GB/s).
	HostLinkBW float64
}

// Result is the outcome of a data-parallel run.
type Result struct {
	// Devices echoes the device count.
	Devices int `json:"devices"`
	// PerDeviceBatch is the per-device slice of the global batch.
	PerDeviceBatch int `json:"per_device_batch"`
	// DeviceReport is the single-device profiling report.
	DeviceReport *core.Report `json:"device_report"`
	// TransferTime is the input-scatter + output-gather time over the
	// host link (devices transfer concurrently; the host link is the
	// shared bottleneck).
	TransferTime time.Duration `json:"transfer_time_ns"`
	// TotalLatency is transfer + device compute for one global batch.
	TotalLatency time.Duration `json:"total_latency_ns"`
	// Throughput is global samples per second.
	Throughput float64 `json:"throughput"`
}

const defaultHostLinkBW = 25e9 // PCIe 4.0 x16 effective

// Profile simulates data-parallel inference of one global batch. The
// single-device run goes through profile (core.ProfileCtx, or a caching
// session's ProfileCtx).
func Profile(ctx context.Context, opts Options, profile core.ProfileFunc) (*Result, error) {
	if opts.Devices < 1 {
		return nil, fmt.Errorf("distributed: need at least 1 device")
	}
	if opts.GlobalBatch < opts.Devices {
		return nil, fmt.Errorf("distributed: global batch %d smaller than device count %d",
			opts.GlobalBatch, opts.Devices)
	}
	if opts.GlobalBatch%opts.Devices != 0 {
		return nil, fmt.Errorf("distributed: global batch %d not divisible by %d devices",
			opts.GlobalBatch, opts.Devices)
	}
	perDevice := opts.GlobalBatch / opts.Devices
	report, err := profile(ctx, core.Options{
		Model:    opts.Model,
		Platform: opts.Platform,
		Batch:    perDevice,
		DType:    opts.DType,
	})
	if err != nil {
		return nil, err
	}

	// Host transfers: the full global batch's inputs and outputs
	// cross the shared host link once.
	link := opts.HostLinkBW
	if link <= 0 {
		link = defaultHostLinkBW
	}
	ioBytes := boundaryBytes(report) * int64(opts.Devices)
	transfer := time.Duration(float64(ioBytes) / link * float64(time.Second))

	total := report.TotalLatency + transfer
	res := &Result{
		Devices:        opts.Devices,
		PerDeviceBatch: perDevice,
		DeviceReport:   report,
		TransferTime:   transfer,
		TotalLatency:   total,
	}
	if total > 0 {
		res.Throughput = float64(opts.GlobalBatch) / total.Seconds()
	}
	return res, nil
}

// boundaryBytes estimates the per-device input+output transfer volume
// from the report's reformat layers (which wrap the graph IO); falls
// back to a nominal share of traffic.
func boundaryBytes(r *core.Report) int64 {
	var bytes int64
	for _, l := range r.Layers {
		if l.IsReformat {
			bytes += l.Point.Bytes / 2 // one crossing, not read+write
		}
	}
	if bytes == 0 {
		bytes = r.EndToEnd.Bytes / 100
	}
	return bytes
}

// ScalingPoint is one device count of a ScalingCurve: the global
// throughput there and its scaling efficiency relative to one device.
type ScalingPoint struct {
	// Devices is the device count.
	Devices int `json:"devices"`
	// Throughput is global samples/s.
	Throughput float64 `json:"throughput"`
	// Efficiency is Throughput / (Devices x single-device throughput
	// at the same per-device conditions), i.e. against a one-device
	// baseline running BaselineBatch — the batch each device actually
	// sees at this point. Comparing against the full global batch on
	// one device would conflate batch-size throughput effects with
	// scaling loss.
	Efficiency float64 `json:"efficiency"`
	// BaselineBatch is the per-device batch the baseline ran at
	// (GlobalBatch / Devices).
	BaselineBatch int `json:"baseline_batch"`
}

// ScalingCurve profiles the same global batch across several device
// counts (each must divide opts.GlobalBatch). Each point's baseline is
// a single device running that point's per-device batch, so efficiency
// isolates pure scaling loss (the host-link transfer) and is provably
// <= 1. Every single-device run goes through profile.
func ScalingCurve(ctx context.Context, opts Options, deviceCounts []int, profile core.ProfileFunc) ([]ScalingPoint, error) {
	// One-device baselines keyed by per-device batch: device counts
	// sharing a per-device batch share a baseline run.
	baselines := map[int]*Result{}
	var out []ScalingPoint
	for _, n := range deviceCounts {
		o := opts
		o.Devices = n
		r, err := Profile(ctx, o, profile)
		if err != nil {
			return nil, err
		}
		base, ok := baselines[r.PerDeviceBatch]
		if !ok {
			base, err = Profile(ctx, Options{
				Model: opts.Model, Platform: opts.Platform, Devices: 1,
				GlobalBatch: r.PerDeviceBatch, DType: opts.DType, HostLinkBW: opts.HostLinkBW,
			}, profile)
			if err != nil {
				return nil, err
			}
			baselines[r.PerDeviceBatch] = base
		}
		eff := 0.0
		if base.Throughput > 0 {
			eff = r.Throughput / (float64(n) * base.Throughput)
		}
		out = append(out, ScalingPoint{
			Devices:       n,
			Throughput:    r.Throughput,
			Efficiency:    eff,
			BaselineBatch: r.PerDeviceBatch,
		})
	}
	return out, nil
}
