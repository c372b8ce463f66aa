package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"proof/internal/faults"
	"proof/internal/hardware"
	"proof/internal/obs"
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

// TestSweepBuildsModelOnce is the regression guard for the sweep's one
// model build: every point names the model by its zoo key (no graph to
// clone or hash), and the points share the process's admitted graph.
// With the zoo admissions dropped first, a traced sweep records exactly
// one "admit" span however many platforms it profiles, and a repeat
// sweep records none.
func TestSweepBuildsModelOnce(t *testing.T) {
	zooGraphs.Reset()
	var mu sync.Mutex
	var seen []Options
	profile := func(ctx context.Context, opts Options) (*Report, error) {
		mu.Lock()
		seen = append(seen, opts)
		mu.Unlock()
		return ProfileCtx(ctx, opts)
	}
	for pass, wantAdmits := range []int{1, 0} {
		tr := obs.NewTracer("sweep")
		results, err := PlatformSweepCtx(obs.WithTracer(context.Background(), tr), "resnet-18", ModePredicted, profile)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(hardware.List()) {
			t.Fatalf("sweep returned %d results for %d platforms", len(results), len(hardware.List()))
		}
		if n := countSpans(tr.Snapshot(), "admit"); n != wantAdmits {
			t.Fatalf("sweep pass %d admitted the model %d times, want %d", pass, n, wantAdmits)
		}
	}
	if len(seen) == 0 {
		t.Fatal("profile stub never called")
	}
	for i, opts := range seen {
		if opts.Graph != nil || opts.Model != "resnet-18" {
			t.Fatalf("profile call %d: got graph %v, model %q; want the zoo key alone", i, opts.Graph != nil, opts.Model)
		}
	}
}

// countSpans counts the finished spans named name.
func countSpans(tr *obs.Trace, name string) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}
