package advisor

import (
	"context"
	"strings"
	"testing"

	"proof/internal/core"
)

func profile(t *testing.T, model string, batch int) *core.Report {
	t.Helper()
	r, err := core.ProfileCtx(context.Background(), core.Options{Model: model, Platform: "a100", Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func hasRule(fs []Finding, rule string) bool {
	for _, f := range fs {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func TestShuffleNetTriggersDataMovement(t *testing.T) {
	fs := Analyze(profile(t, "shufflenetv2-1.0", 512))
	if !hasRule(fs, "data-movement-dominates") {
		t.Errorf("ShuffleNetV2 should trigger the §4.5 data-movement finding, got %+v", fs)
	}
	if !hasRule(fs, "model-memory-bound") {
		t.Error("ShuffleNetV2 on A100 is memory-bound")
	}
	// The modified model must NOT trigger data movement.
	fs2 := Analyze(profile(t, "shufflenetv2-1.0-mod", 512))
	if hasRule(fs2, "data-movement-dominates") {
		t.Error("modified ShuffleNetV2 should not trigger the data-movement finding")
	}
}

func TestEfficientNetTriggersDepthwise(t *testing.T) {
	fs := Analyze(profile(t, "efficientnet-b4", 128))
	if !hasRule(fs, "depthwise-conv-heavy") {
		t.Errorf("EfficientNet B4 should trigger the §4.4 depth-wise finding, got %+v", fs)
	}
}

func TestSmallBatchTriggersOverhead(t *testing.T) {
	fs := Analyze(profile(t, "shufflenetv2-0.5", 1))
	if !hasRule(fs, "launch-overhead-bound") {
		t.Errorf("tiny model at batch 1 should be overhead-bound, got %+v", fs)
	}
}

func TestComputeBoundModel(t *testing.T) {
	fs := Analyze(profile(t, "vit-b", 128))
	if !hasRule(fs, "model-compute-bound") {
		t.Errorf("ViT-B at batch 128 should be compute-bound, got %+v", fs)
	}
}

func TestFindingsOrderedBySeverity(t *testing.T) {
	fs := Analyze(profile(t, "shufflenetv2-1.0", 512))
	for i := 1; i < len(fs); i++ {
		if severityRank(fs[i].Severity) > severityRank(fs[i-1].Severity) {
			t.Errorf("findings not sorted by severity: %+v", fs)
		}
	}
}

func TestWriteFindings(t *testing.T) {
	fs := Analyze(profile(t, "shufflenetv2-1.0", 512))
	var sb strings.Builder
	WriteFindings(&sb, fs)
	if !strings.Contains(sb.String(), "data-movement-dominates") {
		t.Error("rendering missing rule names")
	}
	var empty strings.Builder
	WriteFindings(&empty, nil)
	if !strings.Contains(empty.String(), "no findings") {
		t.Error("empty case")
	}
}
