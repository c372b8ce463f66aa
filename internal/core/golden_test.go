package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden report fixtures:
//
//	go test ./internal/core -run TestGoldenReports -update
var update = flag.Bool("update", false, "rewrite golden report fixtures")

// goldenConfigs pins a spread of (model, platform, seed) points: a
// conv net on the datacenter GPU, a mobile net on the edge SoC, a CPU
// run, a transformer, and one measured-mode run so the counter
// profiler is covered too. Small batches keep the fixtures fast and
// compact; the numbers are as deterministic at batch 4 as at 128.
var goldenConfigs = []struct {
	name string
	opts Options
}{
	{"mobilenetv2-0.5_a100_s1", Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 8, Seed: 1}},
	{"shufflenetv2-0.5_orin-nx_s2", Options{Model: "shufflenetv2-0.5", Platform: "orin-nx", Batch: 4, Seed: 2}},
	{"resnet-18_xeon-6330_s3", Options{Model: "resnet-18", Platform: "xeon-6330", Batch: 4, Seed: 3}},
	{"vit-t_a100_s4", Options{Model: "vit-t", Platform: "a100", Batch: 8, Seed: 4}},
	{"resnet-18_a100_measured_s5", Options{Model: "resnet-18", Platform: "a100", Batch: 8, Seed: 5, Mode: ModeMeasured}},
}

// TestGoldenReports locks the full serialized Report of a fixed config
// set against committed fixtures, so an optimizer, backend or cost-
// model change can never silently shift the numbers: an intentional
// change must re-run with -update and show up in the diff.
func TestGoldenReports(t *testing.T) {
	for _, cfg := range goldenConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			r, err := ProfileCtx(context.Background(), cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(r, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", cfg.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report drifted from %s (%s)\nIf the change is intentional, regenerate with:\n  go test ./internal/core -run TestGoldenReports -update",
					path, firstDiff(want, got))
			}
		})
	}
}

// TestGoldenDeterminism double-runs one config to confirm the report is
// bit-for-bit reproducible — the property the golden fixtures rely on.
func TestGoldenDeterminism(t *testing.T) {
	opts := goldenConfigs[0].opts
	a, err := ProfileCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("identical options produced different reports (%s)", firstDiff(aj, bj))
	}
}

// firstDiff locates the first byte divergence for a readable failure.
func firstDiff(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiW, hiG := i+40, i+40
			if hiW > len(want) {
				hiW = len(want)
			}
			if hiG > len(got) {
				hiG = len(got)
			}
			return fmt.Sprintf("first diff at byte %d: want ...%q, got ...%q", i, want[lo:hiW], got[lo:hiG])
		}
	}
	return fmt.Sprintf("lengths differ: want %d bytes, got %d", len(want), len(got))
}
