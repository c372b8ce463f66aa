package dataviewer

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"proof/internal/core"
)

func TestWriteFullStackTrace(t *testing.T) {
	r, err := core.ProfileCtx(context.Background(), core.Options{Model: "resnet-50", Platform: "a100", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteFullStackTrace(&sb, r, 5)
	out := sb.String()
	if !strings.Contains(out, "Full-stack trace") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "└─") {
		t.Error("missing hierarchy markers")
	}
	if !strings.Contains(out, "sm80_") {
		t.Error("missing kernel names")
	}
	if !strings.Contains(out, "more backend layers") {
		t.Error("missing truncation note")
	}
	// Unlimited depth covers all layers.
	var full strings.Builder
	WriteFullStackTrace(&full, r, 0)
	if strings.Contains(full.String(), "more backend layers") {
		t.Error("maxLayers=0 should print everything")
	}
}

func TestAttributeKernel(t *testing.T) {
	r, err := core.ProfileCtx(context.Background(), core.Options{Model: "resnet-50", Platform: "a100", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a real kernel and attribute it back.
	var kernel string
	var wantLayer string
	for _, l := range r.Layers {
		if !l.IsReformat && len(l.Kernels) > 0 {
			kernel = l.Kernels[0].Name
			wantLayer = l.Name
			break
		}
	}
	modelLayers, backendLayer, ok := AttributeKernel(r, kernel)
	if !ok {
		t.Fatalf("kernel %q not attributed", kernel)
	}
	if backendLayer != wantLayer || len(modelLayers) == 0 {
		t.Errorf("attributed to %q / %v", backendLayer, modelLayers)
	}
	if _, _, ok := AttributeKernel(r, "no_such_kernel"); ok {
		t.Error("unknown kernel must not attribute")
	}
}

func TestWriteCSV(t *testing.T) {
	r, err := core.ProfileCtx(context.Background(), core.Options{Model: "mobilenetv2-1.0", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(r.Layers)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(r.Layers)+1)
	}
	if !strings.HasPrefix(lines[0], "layer,category") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r, err := core.ProfileCtx(context.Background(), core.Options{Model: "mobilenetv2-1.0", Platform: "a100", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := jsonUnmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	layers, kernels := 0, 0
	for _, e := range parsed.TraceEvents {
		switch e.Cat {
		case "backend_layer":
			layers++
			if e.Dur <= 0 {
				t.Errorf("layer event %q has no duration", e.Name)
			}
		case "kernel":
			kernels++
		}
	}
	if layers != len(r.Layers) {
		t.Errorf("trace has %d layer events, want %d", layers, len(r.Layers))
	}
	if kernels < layers {
		t.Error("every layer should contribute at least one kernel event")
	}
}

func TestCompareReports(t *testing.T) {
	orig, err := core.ProfileCtx(context.Background(), core.Options{Model: "shufflenetv2-1.0", Platform: "a100", Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := core.ProfileCtx(context.Background(), core.Options{Model: "shufflenetv2-1.0-mod", Platform: "a100", Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	CompareReports(&sb, "original", orig, "modified", mod)
	out := sb.String()
	for _, want := range []string{"Comparison", "speedup", "latency share by category", "transpose"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
}

// jsonUnmarshal avoids importing encoding/json at the top for one use.
func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }
