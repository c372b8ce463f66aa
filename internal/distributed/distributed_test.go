package distributed

import (
	"context"
	"strings"
	"testing"

	"proof/internal/core"
)

func TestProfileDataParallel(t *testing.T) {
	r, err := Profile(context.Background(), Options{
		Model: "resnet-50", Platform: "a100", Devices: 4, GlobalBatch: 128,
	}, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerDeviceBatch != 32 {
		t.Errorf("per-device batch = %d", r.PerDeviceBatch)
	}
	if r.TransferTime <= 0 {
		t.Error("host transfer time must be positive")
	}
	if r.TotalLatency <= r.DeviceReport.TotalLatency {
		t.Error("total latency must include transfers")
	}
	if r.Throughput <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestDistributedThroughputScales(t *testing.T) {
	one, err := Profile(context.Background(), Options{Model: "resnet-50", Platform: "a100", Devices: 1, GlobalBatch: 256}, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Profile(context.Background(), Options{Model: "resnet-50", Platform: "a100", Devices: 4, GlobalBatch: 256}, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if four.Throughput <= one.Throughput {
		t.Errorf("4 devices (%.0f/s) should out-run 1 (%.0f/s)", four.Throughput, one.Throughput)
	}
	// But not perfectly: host link + small-batch inefficiency.
	if four.Throughput >= 4*one.Throughput {
		t.Error("scaling cannot be super-linear")
	}
}

func TestScalingCurve(t *testing.T) {
	points, err := ScalingCurve(context.Background(), Options{Model: "resnet-50", Platform: "a100", GlobalBatch: 256},
		[]int{1, 2, 4, 8}, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Efficiency < 0.99 || points[0].Efficiency > 1.01 {
		t.Errorf("single-device efficiency = %.2f, want 1.0", points[0].Efficiency)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Efficiency > points[i-1].Efficiency+1e-9 {
			t.Errorf("efficiency must not increase with device count: %+v", points)
		}
		if points[i].Throughput < points[i-1].Throughput {
			t.Errorf("throughput should still grow with devices at this batch: %+v", points)
		}
	}
}

// TestScalingCurveBaselineIsPerDeviceBatch is the regression test for
// the efficiency baseline: each point must be judged against one
// device running that point's per-device batch ("the same per-device
// conditions"), not the full global batch. The old full-batch baseline
// conflated batch-size throughput effects with scaling loss, producing
// efficiencies that were not comparable across device counts.
func TestScalingCurveBaselineIsPerDeviceBatch(t *testing.T) {
	opts := Options{Model: "resnet-50", Platform: "a100", GlobalBatch: 256}
	points, err := ScalingCurve(context.Background(), opts, []int{2, 4, 8}, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.BaselineBatch*p.Devices != opts.GlobalBatch {
			t.Errorf("devices %d: BaselineBatch = %d, want %d",
				p.Devices, p.BaselineBatch, opts.GlobalBatch/p.Devices)
		}
		// Recompute the efficiency from an independent one-device run
		// at the per-device batch; the stored value must match it
		// exactly (the simulator is deterministic). The old code's
		// full-batch baseline yields a different value for every
		// point here.
		base, err := Profile(context.Background(), Options{
			Model: opts.Model, Platform: opts.Platform, Devices: 1,
			GlobalBatch: p.BaselineBatch,
		}, core.ProfileCtx)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Throughput / (float64(p.Devices) * base.Throughput)
		if diff := p.Efficiency - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("devices %d: Efficiency = %v, want %v (per-device-batch baseline)",
				p.Devices, p.Efficiency, want)
		}
		// Against the matching baseline, scaling loss is the only
		// difference, so efficiency is provably <= 1 (and real: the
		// host link always costs something).
		if p.Efficiency > 1+1e-9 {
			t.Errorf("devices %d: efficiency %v > 1 — baseline conditions mismatch",
				p.Devices, p.Efficiency)
		}
		if p.Efficiency <= 0 || p.Efficiency >= 1 {
			t.Errorf("devices %d: efficiency %v, want in (0, 1)", p.Devices, p.Efficiency)
		}
	}
}

// TestDistributedEdgeCases locks the Options validation surface: every
// rejected shape names what is wrong, every accepted shape profiles.
func TestDistributedEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		opts    Options
		wantErr string // substring of the error ("" = success)
	}{
		{"zero devices",
			Options{Model: "resnet-50", Platform: "a100", Devices: 0, GlobalBatch: 8},
			"at least 1 device"},
		{"negative devices",
			Options{Model: "resnet-50", Platform: "a100", Devices: -2, GlobalBatch: 8},
			"at least 1 device"},
		{"batch smaller than devices",
			Options{Model: "resnet-50", Platform: "a100", Devices: 16, GlobalBatch: 8},
			"smaller than device count"},
		{"uneven split 8/3",
			Options{Model: "resnet-50", Platform: "a100", Devices: 3, GlobalBatch: 8},
			"not divisible"},
		{"uneven split 100/7",
			Options{Model: "resnet-50", Platform: "a100", Devices: 7, GlobalBatch: 100},
			"not divisible"},
		{"unknown model",
			Options{Model: "nope", Platform: "a100", Devices: 1, GlobalBatch: 8},
			"unknown model"},
		{"unknown platform",
			Options{Model: "resnet-50", Platform: "nope", Devices: 1, GlobalBatch: 8},
			"unknown platform"},
		{"single device, batch == devices",
			Options{Model: "resnet-50", Platform: "a100", Devices: 4, GlobalBatch: 4},
			""},
		{"explicit host link",
			Options{Model: "resnet-50", Platform: "a100", Devices: 2, GlobalBatch: 8, HostLinkBW: 64e9},
			""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := Profile(context.Background(), tt.opts, core.ProfileCtx)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Profile: %v", err)
				}
				if r.PerDeviceBatch*r.Devices != tt.opts.GlobalBatch {
					t.Errorf("per-device %d x %d devices != global %d",
						r.PerDeviceBatch, r.Devices, tt.opts.GlobalBatch)
				}
				return
			}
			if err == nil {
				t.Fatalf("Profile succeeded, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

// TestHostLinkBWOverride pins the transfer model: the same workload
// over a k-times-faster host link spends exactly k times less time in
// transfers, and the default (0) means PCIe 4.0 x16.
func TestHostLinkBWOverride(t *testing.T) {
	base := Options{Model: "resnet-50", Platform: "a100", Devices: 4, GlobalBatch: 128}
	slow, err := Profile(context.Background(), base, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	fast4x := base
	fast4x.HostLinkBW = 4 * defaultHostLinkBW
	fast, err := Profile(context.Background(), fast4x, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TransferTime <= 0 || slow.TransferTime <= 0 {
		t.Fatal("transfer times must be positive")
	}
	ratio := float64(slow.TransferTime) / float64(fast.TransferTime)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4x link speedup gave %.2fx transfer-time ratio", ratio)
	}
	if fast.Throughput <= slow.Throughput {
		t.Error("faster host link must not lower throughput")
	}
	// Device-side compute is untouched by the link override.
	if fast.DeviceReport.TotalLatency != slow.DeviceReport.TotalLatency {
		t.Error("host link override leaked into device compute latency")
	}

	explicitDefault := base
	explicitDefault.HostLinkBW = defaultHostLinkBW
	dflt, err := Profile(context.Background(), explicitDefault, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if dflt.TransferTime != slow.TransferTime {
		t.Errorf("HostLinkBW 0 (%v) and explicit default (%v) disagree",
			slow.TransferTime, dflt.TransferTime)
	}
}
