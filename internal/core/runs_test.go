package core

import (
	"context"
	"testing"
)

func TestProfileRuns(t *testing.T) {
	stats, err := ProfileRunsCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 8}, 5, ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 5 || stats.Best == nil {
		t.Fatal("incomplete stats")
	}
	if stats.MinLatency > stats.MeanLatency || stats.MeanLatency > stats.MaxLatency {
		t.Errorf("latency ordering broken: %v <= %v <= %v",
			stats.MinLatency, stats.MeanLatency, stats.MaxLatency)
	}
	if stats.Best.TotalLatency != stats.MinLatency {
		t.Error("best run must hold the minimum latency")
	}
	// Jitter is small but non-zero.
	if stats.CV <= 0 || stats.CV > 0.05 {
		t.Errorf("CV = %v, want small positive run-to-run variance", stats.CV)
	}
	if _, err := ProfileRunsCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100"}, 0, ProfileCtx); err == nil {
		t.Error("zero runs must error")
	}
}
