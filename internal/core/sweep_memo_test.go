package core

import (
	"context"
	"sync"
	"testing"

	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/obs"
)

// TestSweepBuildsModelOnce is the regression guard for the sweep's one
// model build: every point names the model by its zoo key (no graph to
// clone or hash), and the points share the process's admitted graph.
// With the zoo admissions dropped first, a traced sweep records exactly
// one "admit" span however many platforms it profiles, and a repeat
// sweep records none.
func TestSweepBuildsModelOnce(t *testing.T) {
	zooGraphs.Reset()
	var mu sync.Mutex
	var seen []Options
	profile := func(ctx context.Context, opts Options) (*Report, error) {
		mu.Lock()
		seen = append(seen, opts)
		mu.Unlock()
		return ProfileCtx(ctx, opts)
	}
	for pass, wantAdmits := range []int{1, 0} {
		tr := obs.NewTracer("sweep")
		results, err := PlatformSweepCtx(obs.WithTracer(context.Background(), tr), "resnet-18", ModePredicted, profile)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(hardware.List()) {
			t.Fatalf("sweep returned %d results for %d platforms", len(results), len(hardware.List()))
		}
		if n := countSpans(tr.Snapshot(), "admit"); n != wantAdmits {
			t.Fatalf("sweep pass %d admitted the model %d times, want %d", pass, n, wantAdmits)
		}
	}
	if len(seen) == 0 {
		t.Fatal("profile stub never called")
	}
	for i, opts := range seen {
		if opts.Graph != nil || opts.Model != "resnet-18" {
			t.Fatalf("profile call %d: got graph %v, model %q; want the zoo key alone", i, opts.Graph != nil, opts.Model)
		}
	}
}

// countSpans counts the finished spans named name.
func countSpans(tr *obs.Trace, name string) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestSweepMemoizedMatchesPlain: a sweep through a memo store must
// produce the same rows as a plain sweep, and a repeat sweep must be
// served from cached plans.
func TestSweepMemoizedMatchesPlain(t *testing.T) {
	plain, err := PlatformSweepCtx(context.Background(), "resnet-18", ModePredicted, ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	store := memo.NewStore(memo.StoreConfig{})
	memoProfile := func(ctx context.Context, opts Options) (*Report, error) {
		opts.Memo = store
		return ProfileCtx(ctx, opts)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := PlatformSweepCtx(context.Background(), "resnet-18", ModePredicted, memoProfile)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(plain) {
			t.Fatalf("pass %d: %d rows, want %d", pass, len(got), len(plain))
		}
		for i := range got {
			if got[i] != plain[i] {
				t.Fatalf("pass %d row %d differs:\n  plain: %+v\n  memo:  %+v", pass, i, plain[i], got[i])
			}
		}
	}
	st := store.Stats()
	if st.PlanHits == 0 {
		t.Fatalf("repeat sweep hit no cached plans: %+v", st)
	}
}
