package core

import (
	"context"
	"testing"

	"proof/internal/obs"
)

// TestPipelineSpans asserts a traced ProfileCtx run emits the full
// stage hierarchy — the paper's own-overhead visibility (Table 4) —
// with correct parent/child nesting and the pipeline attributes.
func TestPipelineSpans(t *testing.T) {
	tr := obs.NewTracer("test")
	ctx := obs.WithTracer(context.Background(), tr)
	_, err := ProfileCtx(ctx, Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 2})
	if err != nil {
		t.Fatal(err)
	}

	trace := tr.Snapshot()
	pipe := trace.Find("pipeline")
	if pipe == nil {
		t.Fatal("no pipeline span recorded")
	}
	for _, stage := range []string{"model_build", "backend_build", "layer_map", "roofline", "analysis"} {
		s := trace.Find(stage)
		if s == nil {
			t.Errorf("stage span %q missing", stage)
			continue
		}
		if s.ParentID != pipe.ID {
			t.Errorf("%s.ParentID = %d, want pipeline %d", stage, s.ParentID, pipe.ID)
		}
	}
	if trace.Find("profile") != nil {
		t.Error("pipeline still records a profile stage: the tail simulates each layer once, inside analysis")
	}
	// Backend internals nest under their stages.
	if fuse := trace.Find("fuse"); fuse == nil {
		t.Error("fuse span missing")
	} else if bb := trace.Find("backend_build"); fuse.ParentID != bb.ID {
		t.Errorf("fuse.ParentID = %d, want backend_build %d", fuse.ParentID, bb.ID)
	}
	if ml := trace.Find("map_layers"); ml == nil {
		t.Error("map_layers span missing")
	} else if lm := trace.Find("layer_map"); ml.ParentID != lm.ID {
		t.Errorf("map_layers.ParentID = %d, want layer_map %d", ml.ParentID, lm.ID)
	}
	attrs := map[string]string{}
	for _, a := range pipe.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["model"] != "mobilenetv2-0.5" || attrs["platform"] != "a100" {
		t.Errorf("pipeline attrs = %v", attrs)
	}
}

// TestUntracedProfileUnchanged: without a tracer the pipeline must run
// identically (the disabled path is a true no-op).
func TestUntracedProfileUnchanged(t *testing.T) {
	rep, err := ProfileCtx(context.Background(), Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLatency <= 0 {
		t.Errorf("report latency = %v", rep.TotalLatency)
	}
}
