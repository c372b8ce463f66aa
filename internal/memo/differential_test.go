// The differential correctness suite: the memo store must be invisible.
// For every zoo model × every platform × {batch 1, platform default},
// the report a session with a shared memo store serves — on the cold
// pass, which executes and stores it, and on the warm pass, which the
// memo store serves — must be byte-identical (as JSON) to the report
// from a plain pipeline run. A stored report is its key's bytes, so a
// difference means the key misses a semantic input (a report served for
// a distinct point). The plain reports are also checked against the
// committed digest fixture (digest_test.go), which pins the tail's
// arithmetic itself.
package memo_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/models"
	"proof/internal/profsession"
)

// reportJSON profiles opts through profile and returns the report's
// reflective encoding/json form, after asserting that the hand-written
// encoder proofd serves with (Report.AppendJSON) writes the same bytes:
// the matrix and the digests below then pin both.
func reportJSON(t *testing.T, profile core.ProfileFunc, opts core.Options) ([]byte, error) {
	t.Helper()
	r, err := profile(context.Background(), opts)
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

// memoSession is a session in front of store that counts the pipeline
// executions it runs.
type memoSession struct {
	*profsession.Session
	executions atomic.Int64
}

func newMemoSession(capacity int, store *memo.Store) *memoSession {
	m := &memoSession{}
	m.Session = profsession.NewWithConfig(profsession.Config{
		Capacity: capacity,
		Memo:     store,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			m.executions.Add(1)
			return core.ProfileCtx(ctx, opts)
		},
	})
	return m
}

// coldWarm serves opts through sess twice, emptying its report store
// in between, so the cold pass executes (or misses the memo store) and
// the warm pass misses the report store. It fails t unless a warm pass
// that succeeds was served by the memo store without an execution.
func coldWarm(t *testing.T, sess *memoSession, opts core.Options) (cold, warm []byte, coldErr, warmErr error) {
	t.Helper()
	cold, coldErr = reportJSON(t, sess.ProfileCtx, opts)
	sess.Reset()
	executed := sess.executions.Load()
	var out profsession.Outcome
	warm, warmErr = reportJSON(t, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		rep, o, err := sess.ProfileOutcome(ctx, opts)
		out = o
		return rep, err
	}, opts)
	if warmErr == nil && (out != profsession.OutcomeMiss || sess.executions.Load() != executed) {
		t.Fatalf("warm pass: outcome %q after %d executions, want a memo-served miss", out, sess.executions.Load()-executed)
	}
	return cold, warm, coldErr, warmErr
}

func TestDifferentialFullMatrix(t *testing.T) {
	// One memo store across the whole matrix, large enough to hold all
	// of it: a report served across models, platforms or batches is
	// exactly the risk surface under test.
	store := memo.NewStore(memo.StoreConfig{UnitCapacity: 1 << 20})
	sess := newMemoSession(0, store)
	for _, info := range models.List() {
		for _, p := range hardware.List() {
			for _, batch := range []int{1, 0} { // 0 = platform default
				name := fmt.Sprintf("%s/%s/batch=%d", info.Key, p.Key, batch)
				t.Run(name, func(t *testing.T) {
					opts := core.Options{Model: info.Key, Platform: p.Key, Batch: batch}
					want, wantErr := reportJSON(t, core.ProfileCtx, opts)
					reportDigests.check(t, "TestDifferentialFullMatrix/"+name, want, wantErr)
					cold, warm, coldErr, warmErr := coldWarm(t, sess, opts)

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
						t.Fatalf("cold session report differs from the plain run:\n  plain:   %s\n  session: %s", want, cold)
					}
					if string(warm) != string(want) {
						t.Fatalf("warm (memo-served) report differs from the plain run:\n  plain: %s\n  memo:  %s", want, warm)
					}
				})
			}
		}
	}
	st := store.Stats()
	if st.Hits == 0 || st.PlanHits == 0 {
		t.Fatalf("matrix exercised no memo reuse (stats %+v) — the differential proved nothing", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("the memo store evicted %d reports: it must hold the whole matrix", st.Evictions)
	}
	t.Logf("memo stats after full matrix: %+v (unit hit ratio %.1f%%)", st, 100*st.HitRatio())
}

// TestDifferentialSeedAndDType extends the differential beyond platform
// defaults: explicit seeds and dtypes key separate reports, and each
// configuration must still be byte-identical to its plain twin.
func TestDifferentialSeedAndDType(t *testing.T) {
	sess := newMemoSession(0, memo.NewStore(memo.StoreConfig{}))
	cases := []core.Options{
		{Model: "resnet-18", Platform: "a100", Seed: 7},
		{Model: "resnet-18", Platform: "a100", Seed: 8},
		{Model: "resnet-18", Platform: "a100", DType: graph.Float32},
		{Model: "mobilenetv2-0.5", Platform: "xeon-6330", Batch: 4},
	}
	for _, opts := range cases {
		name := fmt.Sprintf("%s/%s/seed=%d/dtype=%s/batch=%d", opts.Model, opts.Platform, opts.Seed, opts.DType, opts.Batch)
		t.Run(name, func(t *testing.T) {
			want, err := reportJSON(t, core.ProfileCtx, opts)
			if err != nil {
				t.Fatal(err)
			}
			cold, warm, coldErr, warmErr := coldWarm(t, sess, opts)
			if coldErr != nil || warmErr != nil {
				t.Fatalf("cold: %v, warm: %v", coldErr, warmErr)
			}
			for pass, got := range [][]byte{cold, warm} {
				if string(got) != string(want) {
					t.Fatalf("pass %d differs from the plain run:\n  plain: %s\n  memo:  %s", pass, want, got)
				}
			}
		})
	}
}

// twinGraph builds a graph holding two structurally *similar but
// distinct* MatMul layers — identical op type, identical output shape,
// differing only in the inner (reduction) dimension of their weights.
// Their content keys must differ, and a stored report must keep their
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
	sess := newMemoSession(0, store)
	opts := core.Options{Graph: twinGraph(1), Platform: "a100", Batch: 1}
	want, err := reportJSON(t, core.ProfileCtx, opts)
	if err != nil {
		t.Fatal(err)
	}
	// fc1 and fc2 are structurally identical (one content key, so one
	// jitter); fc3/fc4 are similar but distinct and must not inherit
	// fc1's numbers.
	cold, warm, coldErr, warmErr := coldWarm(t, sess, opts)
	if coldErr != nil || warmErr != nil {
		t.Fatalf("cold: %v, warm: %v", coldErr, warmErr)
	}
	for pass, got := range [][]byte{cold, warm} {
		if string(got) != string(want) {
			t.Fatalf("pass %d: twin-fixture report differs from the plain run:\n  plain: %s\n  memo:  %s", pass, want, got)
		}
	}
	if st := store.Stats(); st.PlanMisses != 1 || st.PlanHits != 1 {
		t.Fatalf("the warm pass was not a memo hit: %+v", st)
	}
}
