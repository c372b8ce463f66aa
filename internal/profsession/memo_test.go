package profsession

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/core/coretest"
	"proof/internal/faults"
	"proof/internal/memo"
	"proof/internal/obs"
)

// memoSession returns a session in front of store whose executions run
// the pipeline and are counted in executions.
func memoSession(store *memo.Store, executions *atomic.Int64) *Session {
	return NewWithConfig(Config{Memo: store, Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
		executions.Add(1)
		return core.ProfileCtx(ctx, opts)
	}})
}

// TestMemoHitSpans: a report-store miss that the memo store serves
// executes nothing and starts no pipeline span. It reports OutcomeMiss
// under its session span, counts its report's layer units as memo hits,
// and stores the memo's report, so the next request is a hit.
func TestMemoHitSpans(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	var executions atomic.Int64
	s := memoSession(store, &executions)
	ctx := context.Background()
	if _, err := s.ProfileCtx(ctx, baseOpts); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	tr := obs.NewTracer("test")
	rep, out, err := s.ProfileOutcome(obs.WithTracer(ctx, tr), baseOpts)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("memo-served ProfileOutcome = %v, %v; want a miss", out, err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions, want only the first request's", n)
	}
	trace := tr.Snapshot()
	if trace.Find("pipeline") != nil {
		t.Error("a memo-served request started a pipeline span")
	}
	sp := trace.Find("session")
	if sp == nil {
		t.Fatal("no session span recorded")
	}
	attrs := map[string]string{}
	for _, a := range sp.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["cache"] != string(OutcomeMiss) {
		t.Errorf("session span cache attr = %q, want miss", attrs["cache"])
	}
	if st := store.Stats(); st.PlanHits != 1 || st.Hits != int64(len(rep.Layers)) || st.Hits != st.Misses {
		t.Errorf("memo stats %+v: want one hit serving the report's %d layer units", st, len(rep.Layers))
	}
	if _, out, err := s.ProfileOutcome(ctx, baseOpts); err != nil || out != OutcomeHit {
		t.Errorf("after a memo-served miss, ProfileOutcome = %v, %v; want a hit", out, err)
	}
}

// TestMemoServedReportsAreOwned: the report an execution returns and
// each report the memo store serves are their callers', to write as
// they like. The stored encoding must not change, so later memo-served
// reports still encode to the executed report's bytes.
func TestMemoServedReportsAreOwned(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	var executions atomic.Int64
	s := memoSession(store, &executions)
	ctx := context.Background()
	executed, err := s.ProfileCtx(ctx, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executed.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	coretest.WriteEverySlice(executed)
	for i := 1; i <= 2; i++ {
		s.Reset()
		served, err := s.ProfileCtx(ctx, baseOpts)
		if err != nil {
			t.Fatal(err)
		}
		if st := store.Stats(); st.PlanHits != int64(i) {
			t.Fatalf("request %d: %d memo hits, want %d", i, st.PlanHits, i)
		}
		if got, _ := served.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("memo-served report %d differs from the executed one after a caller wrote a report", i)
		}
		coretest.WriteEverySlice(served)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
}

// TestMemoServesMeasuredMode: a stored report is its key's final bytes
// in every mode, so a measured-mode request, and one with the peak-test
// roofline, is stored and served like a predicted one, byte-identical
// to a plain run.
func TestMemoServesMeasuredMode(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	var executions atomic.Int64
	s := memoSession(store, &executions)
	ctx := context.Background()
	for _, opts := range []core.Options{
		{Model: "resnet-18", Platform: "a100", Batch: 4, Mode: core.ModeMeasured},
		{Model: "resnet-18", Platform: "a100", Batch: 4, MeasuredRoofline: true},
	} {
		plain, err := core.ProfileCtx(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := plain.AppendJSON(nil)
		if _, err := s.ProfileCtx(ctx, opts); err != nil {
			t.Fatal(err)
		}
		s.Reset()
		executed := executions.Load()
		served, out, err := s.ProfileOutcome(ctx, opts)
		if err != nil || out != OutcomeMiss || executions.Load() != executed {
			t.Fatalf("mode %q, measured roofline %v: ProfileOutcome = %v, %v after %d more executions; want a memo-served miss",
				opts.Mode, opts.MeasuredRoofline, out, err, executions.Load()-executed)
		}
		if got, _ := served.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("mode %q, measured roofline %v: the memo-served report differs from a plain run", opts.Mode, opts.MeasuredRoofline)
		}
	}
	if st := store.Stats(); st.PlanHits != 2 || st.Reports != 2 {
		t.Fatalf("memo stats %+v, want two stored reports and two hits", st)
	}
}

// TestMemoServesBeforeTheCircuit: the memo store is consulted before
// the breaker, as the report store is, so a stored report is served
// while its circuit is open.
func TestMemoServesBeforeTheCircuit(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	var calls atomic.Int64
	s := NewWithConfig(Config{
		Memo:    store,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute},
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if calls.Add(1) > 1 {
				return nil, faults.Permanent(errors.New("backend down"))
			}
			return core.ProfileCtx(ctx, opts)
		},
	})
	ctx := context.Background()
	if _, err := s.ProfileCtx(ctx, baseOpts); err != nil {
		t.Fatal(err)
	}
	// Another seed shares the circuit; its failure opens it.
	other := baseOpts
	other.Seed++
	if _, err := s.ProfileCtx(ctx, other); err == nil {
		t.Fatal("the failing execution succeeded")
	}
	if _, out, _ := s.ProfileOutcome(ctx, other); out != OutcomeRejected {
		t.Fatalf("after a failure at threshold 1, outcome %q; want the circuit open", out)
	}
	s.Reset()
	if _, out, err := s.ProfileOutcome(ctx, baseOpts); err != nil || out != OutcomeMiss {
		t.Fatalf("stored report behind an open circuit: %v, %v; want a memo-served miss", out, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d executions, want 2", n)
	}
}
