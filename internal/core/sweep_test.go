package core

import (
	"context"
	"errors"
	"testing"

	"proof/internal/faults"
)

func TestPlatformSweepCNN(t *testing.T) {
	results, err := PlatformSweepCtx(context.Background(), "resnet-50", ModePredicted, ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("results = %d, want 7 platforms", len(results))
	}
	// CNNs run everywhere; results sorted by throughput.
	for i, r := range results {
		if !r.Supported {
			t.Errorf("%s unsupported for a CNN: %s", r.Platform, r.Reason)
		}
		if i > 0 && r.Throughput > results[i-1].Throughput {
			t.Error("results not sorted by throughput")
		}
	}
	// A data-center GPU must top a Raspberry Pi.
	if results[0].Platform == "rpi4b" {
		t.Error("RPi cannot be the fastest platform")
	}
	if results[len(results)-1].Platform != "rpi4b" {
		t.Errorf("RPi should be slowest, got %s", results[len(results)-1].Platform)
	}
}

func TestPlatformSweepTransformerSkips(t *testing.T) {
	results, err := PlatformSweepCtx(context.Background(), "vit-b", ModePredicted, ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	var unsupported []string
	for _, r := range results {
		if !r.Supported {
			unsupported = append(unsupported, r.Platform)
			if r.Reason == "" {
				t.Errorf("%s: missing skip reason", r.Platform)
			}
		}
	}
	found := false
	for _, p := range unsupported {
		if p == "npu3720" {
			found = true
		}
	}
	if !found {
		t.Errorf("NPU should be unsupported for transformers, got %v", unsupported)
	}
}

func TestPlatformSweepUnknownModel(t *testing.T) {
	if _, err := PlatformSweepCtx(context.Background(), "nope", ModePredicted, ProfileCtx); err == nil {
		t.Error("unknown model must error")
	}
}

// A platform that fails for any reason other than ErrUnsupported fails
// the sweep: a transient device fault must not read as "this platform
// cannot run the model".
func TestPlatformSweepFailsOnTransientError(t *testing.T) {
	reset := faults.Transient(errors.New("device reset"))
	profile := func(ctx context.Context, o Options) (*Report, error) {
		if o.Platform == "a100" {
			return nil, reset
		}
		return ProfileCtx(ctx, o)
	}
	results, err := PlatformSweepCtx(context.Background(), "resnet-50", ModePredicted, profile)
	if !errors.Is(err, reset) || !faults.IsTransient(err) {
		t.Fatalf("err = %v, want the transient a100 failure", err)
	}
	if results != nil {
		t.Errorf("results = %v, want none", results)
	}
}
