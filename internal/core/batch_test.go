package core

import (
	"context"
	"testing"

	"proof/internal/graphops"
	"proof/internal/models"
)

func TestOptimalBatch(t *testing.T) {
	best, points, err := OptimalBatchCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100"},
		[]int{1, 8, 64, 256, 512}, ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("sweep points = %d", len(points))
	}
	// On a data-center GPU, throughput grows with batch before
	// saturating; the best batch is not 1.
	if best == 1 {
		t.Error("optimal batch on A100 should exceed 1")
	}
	var bestTP float64
	for _, p := range points {
		if p.Throughput > bestTP {
			bestTP = p.Throughput
		}
	}
	for _, p := range points {
		if p.Batch == best && p.Throughput != bestTP {
			t.Error("reported best batch does not hold the best throughput")
		}
	}
	if _, _, err := OptimalBatchCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100"}, []int{}, ProfileCtx); err == nil {
		t.Error("empty candidates must error")
	}
}

func TestProfileQuantizedGraph(t *testing.T) {
	g, err := models.Build("resnet-50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphops.QuantizeInt8(g); err != nil {
		t.Fatal(err)
	}
	r, err := ProfileCtx(context.Background(), Options{Graph: g, Platform: "a100", Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.DType != "int8" {
		t.Errorf("quantized graph should run at int8, got %s", r.DType)
	}
	// The Q/DQ boundary layers must appear as copy-class layers.
	found := 0
	for _, l := range r.Layers {
		for _, n := range l.OriginalNodes {
			if n == "quantize_input" || len(n) > 11 && n[:11] == "dequantize_" {
				found++
			}
		}
	}
	if found == 0 {
		t.Error("Q/DQ nodes missing from the mapped layers")
	}
	// Int8 on A100 doubles the compute ceiling vs fp16.
	fp16, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.Roofline.PeakFLOPS <= fp16.Roofline.PeakFLOPS {
		t.Error("int8 roofline should exceed fp16")
	}
}

func TestKernelReportsPresent(t *testing.T) {
	r, err := ProfileCtx(context.Background(), Options{Model: "resnet-50", Platform: "a100", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range r.Layers {
		if len(l.Kernels) == 0 {
			t.Errorf("layer %q has no kernels", l.Name)
			continue
		}
		var sum int64
		for _, k := range l.Kernels {
			if k.Name == "" || k.Latency < 0 {
				t.Errorf("bad kernel in %q", l.Name)
			}
			sum += int64(k.Latency)
		}
		// Kernel latencies partition the layer latency.
		if diff := sum - int64(l.Point.Latency); diff > int64(l.Point.Latency)/100+2 || diff < -int64(l.Point.Latency)/100-2 {
			t.Errorf("layer %q kernel latencies sum to %d, layer %d", l.Name, sum, l.Point.Latency)
		}
	}
}
