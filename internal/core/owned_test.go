package core_test

import (
	"bytes"
	"context"
	"testing"

	"proof/internal/core"
)

// A report's layer lists are carved from report-wide arrays: all
// layers' original nodes and op types share one []string and all
// kernels one array. This test writes reports the way a caller may.

// TestLayerListsAreCapped appends to each layer's three lists of a
// report core.ProfileCtx returned, layer 0 first, and cuts each back to
// its length. Every list is a capped sub-slice of its array, so each
// append reallocates and no layer's entries change; an uncapped list
// would hand its append the next layer's first entry.
func TestLayerListsAreCapped(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []core.Options{
		{Model: "resnet-18", Platform: "a100", Batch: 4},
		{Model: "mlp-mixer", Platform: "xeon-6330", Batch: 2},
		{Model: "shufflenetv2-0.5", Platform: "npu3720", Batch: 1},
		{Model: "resnet-18", Platform: "a100", Batch: 4, Mode: core.ModeMeasured},
	} {
		r, err := core.ProfileCtx(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.Layers {
			l := &r.Layers[i]
			n, m, k := len(l.OriginalNodes), len(l.OpTypes), len(l.Kernels)
			l.OriginalNodes = append(l.OriginalNodes, "junk")[:n]
			l.OpTypes = append(l.OpTypes, "junk")[:m]
			l.Kernels = append(l.Kernels, core.KernelReport{Name: "junk"})[:k]
		}
		if got, _ := r.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s/%s %s: appending to one layer's list wrote another layer's entries", opts.Model, opts.Platform, opts.Mode)
		}
	}
}
