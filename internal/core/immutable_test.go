package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"proof/internal/graph"
	"proof/internal/models"
	"proof/internal/parallel"
)

// Admitted graphs are shared by every run that profiles them, and
// nothing stops a run from writing through a view into a shared node,
// attribute or shape. These are the models of perfbench's cold-zoo and
// inline-graph slices, and one platform per simulated runtime.
var (
	sharedZooModels    = []string{"vit-t", "vit-s", "vit-b", "bert-base", "mlp-mixer", "shufflenetv2-0.5", "shufflenetv2-1.0"}
	sharedInlineModels = []string{"resnet-18", "resnet-34", "resnet-50", "mobilenetv2-0.5", "mobilenetv2-1.0", "shufflenetv2-1.0-mod"}
	sharedPlatforms    = []string{"a100", "xeon-6330", "npu3720"}
)

// admitInline admits a zoo model the way proofd's edge admits a posted
// graph: decoded from its JSON export, admitted, then shape-inferred in
// place.
func admitInline(t *testing.T, model string) *graph.Graph {
	t.Helper()
	built, err := models.Build(model)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	var decoded graph.Graph
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	g, errs := graph.Admit(&decoded)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAdmittedGraphsNeverWritten profiles every shared graph
// concurrently on every platform, at batches 1 and 32, in predicted and
// measured mode, with and without MeasuredRoofline, and then asserts
// that each admitted graph still marshals to the bytes it had before.
// Run under -race it also catches a shared write that happens to
// restore the value it overwrote.
func TestAdmittedGraphsNeverWritten(t *testing.T) {
	ctx := context.Background()
	shared := map[string]*graph.Graph{}
	for _, m := range sharedZooModels {
		g, err := admittedGraph(ctx, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		shared["zoo:"+m] = g
	}
	for _, m := range sharedInlineModels {
		shared["inline:"+m] = admitInline(t, m)
	}
	before := map[string][]byte{}
	for key, g := range shared {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		before[key] = raw
	}

	var runs []Options
	for _, plat := range sharedPlatforms {
		for _, batch := range []int{1, 32} {
			for _, mode := range []Mode{ModePredicted, ModeMeasured} {
				for _, mr := range []bool{false, true} {
					base := Options{Platform: plat, Batch: batch, Mode: mode, MeasuredRoofline: mr, IgnoreSupport: true, Seed: 7}
					for _, m := range sharedZooModels {
						o := base
						o.Model = m
						runs = append(runs, o)
					}
					for _, m := range sharedInlineModels {
						o := base
						o.Graph = shared["inline:"+m]
						runs = append(runs, o)
					}
				}
			}
		}
	}
	_, err := parallel.MapCtx(ctx, runs, 8, func(ctx context.Context, o Options) (struct{}, error) {
		if _, err := ProfileCtx(ctx, o); err != nil {
			name := o.Model
			if o.Graph != nil {
				name = o.Graph.Name
			}
			return struct{}{}, fmt.Errorf("%s on %s at batch %d (%s, measured roofline %v): %w",
				name, o.Platform, o.Batch, o.Mode, o.MeasuredRoofline, err)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, g := range shared {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, before[key]) {
			t.Errorf("%s: a run wrote into the shared admitted graph", key)
		}
	}
}

// TestConcurrentRunsShareRawGraph profiles one raw (never admitted)
// Options.Graph from four goroutines at batches 1–4, on each runtime's
// platform, before any other run has seen it. Each run admits the graph
// for itself, and admission stamps the nodes it takes, so a run that
// admitted the caller's own nodes would race with the others. Every
// report must equal the report of the same run made alone afterwards,
// and the caller's graph must marshal to the bytes it had before.
func TestConcurrentRunsShareRawGraph(t *testing.T) {
	ctx := context.Background()
	batches := []int{1, 2, 3, 4}
	for _, plat := range sharedPlatforms {
		raw, err := models.Build("resnet-18")
		if err != nil {
			t.Fatal(err)
		}
		before, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		profile := func(ctx context.Context, b int) ([]byte, error) {
			r, err := ProfileCtx(ctx, Options{Graph: raw, Platform: plat, Batch: b, IgnoreSupport: true, Seed: 3})
			if err != nil {
				return nil, err
			}
			return json.Marshal(r)
		}
		got, err := parallel.MapCtx(ctx, batches, len(batches), profile)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			want, err := profile(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i], want) {
				t.Errorf("%s batch %d: the concurrent report differs from the sequential one", plat, b)
			}
		}
		after, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s: a run wrote into the caller's raw graph", plat)
		}
	}
}
