package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"proof/internal/experiments"
)

// TestFigure5WriteOrder: Figure 5's charts are written, and listed in
// index.html, in experiments.Figure5Models order on every run.
func TestFigure5WriteOrder(t *testing.T) {
	reports, err := experiments.Figure5(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range experiments.Figure5Models {
		want = append(want, "figure5_"+m.Key+".svg")
	}
	dir := t.TempDir()
	for run := 0; run < 5; run++ {
		writtenCharts = nil
		writeFigure5(dir, reports)
		if !slices.Equal(writtenCharts, want) {
			t.Fatalf("run %d wrote %v, want %v", run, writtenCharts, want)
		}
	}
	writeGallery(dir)
	index, err := os.ReadFile(filepath.Join(dir, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range regexp.MustCompile(`<img src="([^"]+)"`).FindAllSubmatch(index, -1) {
		listed = append(listed, string(m[1]))
	}
	if !slices.Equal(listed, want) {
		t.Fatalf("index.html lists %v, want %v", listed, want)
	}
}
