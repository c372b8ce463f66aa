// The differential correctness suite: memoization must be invisible.
// For every zoo model × every platform × {batch 1, platform default},
// the report produced through a shared memo store — both on the cold
// recording pass and on the warm plan-assembly pass — must be
// byte-identical (as JSON) to the report from a run with no store.
// All three share one report tail, so a difference means the plan key
// misses a semantic input (a stale plan served for a distinct point).
// The no-store reports are also checked against the committed digest
// fixture (digest_test.go), which pins the tail's arithmetic itself.
package memo_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/models"
)

// reportJSON profiles opts and returns the report's reflective
// encoding/json form, after asserting that the hand-written encoder
// proofd serves with (Report.AppendJSON) writes the same bytes: the
// matrix and the digests below then pin both.
func reportJSON(t *testing.T, opts core.Options) ([]byte, error) {
	t.Helper()
	r, err := core.ProfileCtx(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	if appended, err := r.AppendJSON(nil); err != nil || string(appended) != string(raw) {
		t.Fatalf("Report.AppendJSON (err %v) differs from encoding/json:\n  append: %.300s\n  json:   %.300s", err, appended, raw)
	}
	return raw, nil
}

func TestDifferentialFullMatrix(t *testing.T) {
	// One store across the whole matrix: a plan served across models,
	// platforms or batches is exactly the risk surface under test.
	store := memo.NewStore(memo.StoreConfig{})
	for _, info := range models.List() {
		for _, p := range hardware.List() {
			for _, batch := range []int{1, 0} { // 0 = platform default
				name := fmt.Sprintf("%s/%s/batch=%d", info.Key, p.Key, batch)
				t.Run(name, func(t *testing.T) {
					plain := core.Options{Model: info.Key, Platform: p.Key, Batch: batch}
					memoized := plain
					memoized.Memo = store

					want, wantErr := reportJSON(t, plain)
					reportDigests.check(t, "TestDifferentialFullMatrix/"+name, want, wantErr)
					cold, coldErr := reportJSON(t, memoized)
					warm, warmErr := reportJSON(t, memoized)

					if (wantErr == nil) != (coldErr == nil) || (wantErr == nil) != (warmErr == nil) {
						t.Fatalf("error disagreement: plain=%v cold=%v warm=%v", wantErr, coldErr, warmErr)
					}
					if wantErr != nil {
						// Unsupported combinations must fail identically.
						if wantErr.Error() != coldErr.Error() || wantErr.Error() != warmErr.Error() {
							t.Fatalf("error text disagreement:\n  plain: %v\n  cold:  %v\n  warm:  %v", wantErr, coldErr, warmErr)
						}
						return
					}
					if string(cold) != string(want) {
						t.Fatalf("cold memoized report differs from unmemoized:\n  plain: %s\n  memo:  %s", want, cold)
					}
					if string(warm) != string(want) {
						t.Fatalf("warm (plan-assembled) report differs from unmemoized:\n  plain: %s\n  memo:  %s", want, warm)
					}
				})
			}
		}
	}
	st := store.Stats()
	if st.Hits == 0 || st.PlanHits == 0 {
		t.Fatalf("matrix exercised no memo reuse (stats %+v) — the differential proved nothing", st)
	}
	t.Logf("memo stats after full matrix: %+v (unit hit ratio %.1f%%)", st, 100*st.HitRatio())
}

// TestDifferentialSeedAndDType extends the differential beyond platform
// defaults: explicit seeds and dtypes key separate plans, and each
// configuration must still be byte-identical to its unmemoized twin.
func TestDifferentialSeedAndDType(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	cases := []core.Options{
		{Model: "resnet-18", Platform: "a100", Seed: 7},
		{Model: "resnet-18", Platform: "a100", Seed: 8},
		{Model: "resnet-18", Platform: "a100", DType: graph.Float32},
		{Model: "mobilenetv2-0.5", Platform: "xeon-6330", Batch: 4},
	}
	for _, opts := range cases {
		name := fmt.Sprintf("%s/%s/seed=%d/dtype=%s/batch=%d", opts.Model, opts.Platform, opts.Seed, opts.DType, opts.Batch)
		t.Run(name, func(t *testing.T) {
			want, err := reportJSON(t, opts)
			if err != nil {
				t.Fatal(err)
			}
			memoized := opts
			memoized.Memo = store
			for pass, label := range []string{"cold", "warm"} {
				got, err := reportJSON(t, memoized)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if string(got) != string(want) {
					t.Fatalf("pass %d (%s) differs from unmemoized:\n  plain: %s\n  memo:  %s", pass, label, want, got)
				}
			}
		})
	}
}

// twinGraph builds a graph holding two structurally *similar but
// distinct* MatMul layers — identical op type, identical output shape,
// differing only in the inner (reduction) dimension of their weights.
// Their content keys must differ, and a memoized profile must keep their
// per-layer results apart. This is the regression fixture for
// cross-contamination: a content key that dropped any shape dimension
// would give layer B layer A's simulated jitter.
func twinGraph(batch int) *graph.Graph {
	g := graph.New("twin-fixture")
	g.AddTensor(&graph.Tensor{Name: "in", DType: graph.Float32, Shape: graph.Shape{batch, 256}})
	g.AddTensor(&graph.Tensor{Name: "w1", DType: graph.Float32, Shape: graph.Shape{256, 256}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "mid", DType: graph.Float32, Shape: graph.Shape{batch, 256}})
	g.AddTensor(&graph.Tensor{Name: "w2", DType: graph.Float32, Shape: graph.Shape{256, 256}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "mid2", DType: graph.Float32, Shape: graph.Shape{batch, 256}})
	// The distinct twin: same op, same output shape, fatter reduction.
	g.AddTensor(&graph.Tensor{Name: "w3", DType: graph.Float32, Shape: graph.Shape{256, 1024}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "mid3", DType: graph.Float32, Shape: graph.Shape{batch, 1024}})
	g.AddTensor(&graph.Tensor{Name: "w4", DType: graph.Float32, Shape: graph.Shape{1024, 256}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "out", DType: graph.Float32, Shape: graph.Shape{batch, 256}})
	g.AddNode(&graph.Node{Name: "fc1", OpType: "Gemm", Inputs: []string{"in", "w1"}, Outputs: []string{"mid"}})
	g.AddNode(&graph.Node{Name: "fc2", OpType: "Gemm", Inputs: []string{"mid", "w2"}, Outputs: []string{"mid2"}})
	g.AddNode(&graph.Node{Name: "fc3", OpType: "Gemm", Inputs: []string{"mid2", "w3"}, Outputs: []string{"mid3"}})
	g.AddNode(&graph.Node{Name: "fc4", OpType: "Gemm", Inputs: []string{"mid3", "w4"}, Outputs: []string{"out"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"out"}
	return g
}

func TestDifferentialSimilarLayersNeverCrossContaminate(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	run := func(st *memo.Store) *core.Report {
		t.Helper()
		r, err := core.ProfileCtx(context.Background(), core.Options{
			Graph: twinGraph(1), Platform: "a100", Batch: 1, Memo: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(nil)
	cold := run(store)
	warm := run(store)

	// fc1 and fc2 are structurally identical (one content key, so one
	// jitter); fc3/fc4 are similar but distinct and must not inherit
	// fc1's numbers.
	wantJSON, _ := json.Marshal(want)
	for pass, r := range []*core.Report{cold, warm} {
		gotJSON, _ := json.Marshal(r)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("pass %d: twin-fixture report differs from unmemoized:\n  plain: %s\n  memo:  %s", pass, wantJSON, gotJSON)
		}
	}
	if st := store.Stats(); st.PlanMisses != 1 || st.PlanHits != 1 {
		t.Fatalf("the warm pass was not a plan hit: %+v", st)
	}
}
