package profsession

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/core/coretest"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/models"
	"proof/internal/roofline"
)

var baseOpts = core.Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 8, Seed: 1}

// hitAllocBudget caps the objects one report-store hit allocates: its
// resolved key, and the decoded report, its layers, one names array and
// one kernels array, however many layers the report has.
const hitAllocBudget = 5

// withBWLine profiles through the pipeline and adds one extra roofline
// ceiling, so every slice a report holds is non-empty.
func withBWLine(ctx context.Context, opts core.Options) (*core.Report, error) {
	rep, err := core.ProfileCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	rep.Roofline.ExtraBWLines = []roofline.BWLine{{Label: "EMC 2133 MHz", BW: 68e9}}
	return rep, nil
}

func TestCacheHitDeepEqual(t *testing.T) {
	s := NewWithProfiler(0, withBWLine)
	r1, err := s.ProfileCtx(context.Background(), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.ProfileCtx(context.Background(), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("cache returned the same pointer; want a report of the hit's own")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cached report is not deep-equal to the original")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
	want, err := r1.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating every slice of a returned report must not corrupt the
	// stored one.
	coretest.WriteEverySlice(r2)
	r3, err := s.ProfileCtx(context.Background(), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatal("mutating a cache-hit result leaked into the cache")
	}
	hit, out, err := s.ProfileOutcome(context.Background(), baseOpts)
	if err != nil || out != OutcomeHit {
		t.Fatalf("ProfileOutcome = %v, %v", out, err)
	}
	if got, err := hit.AppendJSON(nil); err != nil || string(got) != string(want) {
		t.Fatalf("after a caller wrote its report, a hit encodes differently (err %v)", err)
	}
}

// TestHitsReturnOwnedReports: every report a session returns is its
// caller's. The miss returns the pipeline's report; each hit decodes
// the stored one afresh, so two hits return distinct reports that are
// deep-equal and encode to the miss's bytes. Hits from several
// goroutines, each writing every slice of its report, and a write to
// the miss's report leave later hits unchanged (under -race, a shared
// write also fails as a data race). A hit allocates the same small
// number of objects whatever the report's layer count.
func TestHitsReturnOwnedReports(t *testing.T) {
	ctx := context.Background()
	s := New(0)
	miss, out, err := s.ProfileOutcome(ctx, baseOpts)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first ProfileOutcome = %v, %v", out, err)
	}
	want, err := miss.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	coretest.WriteEverySlice(miss)
	r1, _, err := s.ProfileOutcome(ctx, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	r2, out, err := s.ProfileOutcome(ctx, baseOpts)
	if err != nil || out != OutcomeHit {
		t.Fatalf("ProfileOutcome = %v, %v", out, err)
	}
	if r1 == r2 || &r1.Layers[0] == &r2.Layers[0] {
		t.Fatal("two hits on one key share a report; want one each")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two hits on one key returned different reports")
	}
	for _, r := range []*core.Report{r1, r2} {
		if got, err := r.AppendJSON(nil); err != nil || string(got) != string(want) {
			t.Fatalf("a hit encodes differently from the miss (err %v)", err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				rep, out, err := s.ProfileOutcome(ctx, baseOpts)
				if err != nil || out != OutcomeHit {
					t.Errorf("concurrent ProfileOutcome = %v, %v", out, err)
					return
				}
				if got, err := rep.AppendJSON(nil); err != nil || string(got) != string(want) {
					t.Errorf("a concurrent hit encodes differently from the miss (err %v)", err)
				}
				coretest.WriteEverySlice(rep)
			}
		}()
	}
	wg.Wait()

	var first float64
	for i, opts := range []core.Options{
		baseOpts,
		{Model: "vit-t", Platform: "a100", Batch: 8},
		{Model: "mlp-mixer", Platform: "npu3720", Batch: 8},
	} {
		rep, err := s.ProfileCtx(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := s.ProfileOutcome(ctx, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s/%s: %.0f allocs per hit, %d layers", opts.Model, opts.Platform, allocs, len(rep.Layers))
		if allocs > hitAllocBudget {
			t.Errorf("%s/%s: a hit allocates %.0f objects, budget %d", opts.Model, opts.Platform, allocs, hitAllocBudget)
		}
		if i == 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("%s/%s: a hit allocates %.0f objects, %.0f on %s: the count follows the layers",
				opts.Model, opts.Platform, allocs, first, baseOpts.Model)
		}
	}
}

func TestCacheMissOnDifferingOptions(t *testing.T) {
	s := New(0)
	if _, err := s.ProfileCtx(context.Background(), baseOpts); err != nil {
		t.Fatal(err)
	}
	variants := map[string]core.Options{}
	o := baseOpts
	o.Seed = 2
	variants["seed"] = o
	o = baseOpts
	o.Clocks = hardware.Clocks{GPUCapacity: 0.5}
	variants["clocks"] = o
	o = baseOpts
	o.Batch = 16
	variants["batch"] = o
	o = baseOpts
	o.Mode = core.ModeMeasured
	variants["mode"] = o
	o = baseOpts
	o.DType = graph.Float32 // a100's default is fp16
	variants["dtype"] = o
	o = baseOpts
	o.MeasuredRoofline = true
	variants["measured-roofline"] = o

	misses := s.Stats().Misses
	for name, v := range variants {
		if _, err := s.ProfileCtx(context.Background(), v); err != nil {
			t.Fatalf("%s variant: %v", name, err)
		}
		st := s.Stats()
		if st.Misses != misses+1 {
			t.Fatalf("%s variant did not miss (misses %d -> %d)", name, misses, st.Misses)
		}
		misses = st.Misses
	}
	if hits := s.Stats().Hits; hits != 0 {
		t.Fatalf("unexpected hits %d while probing distinct variants", hits)
	}
}

// TestCacheGraphContent checks graph-supplied requests are keyed by
// graph content: same content hits even across distinct pointers,
// different content misses, and the caller's graph is never mutated.
func TestCacheGraphContent(t *testing.T) {
	build := func() *graph.Graph {
		g, err := models.Build("shufflenetv2-0.5")
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	s := New(0)
	g1 := build()
	before, err := memo.GraphDigest(g1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Graph: g1, Platform: "a100", Batch: 4, DType: graph.Float32}
	if _, err := s.ProfileCtx(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	after, err := memo.GraphDigest(g1)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("session mutated the caller's graph")
	}
	// Same content, different pointer: hit.
	opts2 := opts
	opts2.Graph = build()
	if _, err := s.ProfileCtx(context.Background(), opts2); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit for content-identical graph", st)
	}
	// Different content: miss.
	g3 := build()
	g3.Name = "renamed"
	opts3 := opts
	opts3.Graph = g3
	if _, err := s.ProfileCtx(context.Background(), opts3); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses after content change", st)
	}
}

func TestFingerprintNormalization(t *testing.T) {
	a, err := Fingerprint(baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	// "" and ModePredicted are the same pipeline.
	o := baseOpts
	o.Mode = core.ModePredicted
	b, err := Fingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("empty mode and ModePredicted should fingerprint identically")
	}
	o.Mode = core.ModeMeasured
	c, err := Fingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct modes must fingerprint differently")
	}
}

// TestGraphRequestKeepsModelName: with a graph supplied, Model is the
// report's display name, so a request naming the model and one that
// does not are distinct reports and must not share a cache entry.
func TestGraphRequestKeepsModelName(t *testing.T) {
	g, err := models.Build("mobilenetv2-1.0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(0)
	named := core.Options{Model: "mobilenetv2-1.0", Graph: g, Platform: "a100", Batch: 1}
	if _, err := s.ProfileCtx(context.Background(), named); err != nil {
		t.Fatal(err)
	}
	unnamed := named
	unnamed.Model = ""
	got, err := s.ProfileCtx(context.Background(), unnamed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ProfileCtx(context.Background(), core.Options{Graph: g.Clone(), Platform: "a100", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != want.Model {
		t.Fatalf("session served model %q, pipeline reports %q", got.Model, want.Model)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

// TestGraphDigestComputedOnce: an admitted graph carries the digest it
// was admitted with. The session keys the request with it and hands the
// pipeline the admitted graph itself — no clone, no second hash — so
// the pipeline plan-keys the run with the same digest.
func TestGraphDigestComputedOnce(t *testing.T) {
	raw, err := models.Build("shufflenetv2-0.5")
	if err != nil {
		t.Fatal(err)
	}
	want, err := memo.GraphDigest(raw)
	if err != nil {
		t.Fatal(err)
	}
	g, errs := graph.Admit(raw)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	var got *graph.Graph
	s := NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		got = opts.Graph
		return stubRep(opts), nil
	})
	if _, err := s.ProfileCtx(context.Background(), core.Options{Graph: g, Platform: "a100", Batch: 1}); err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatal("pipeline received a copy of the admitted graph, not the graph itself")
	}
	if d, _ := memo.GraphDigest(got); d != want {
		t.Fatalf("pipeline's graph digests to %q, want the admitted digest %q", d, want)
	}
}

// TestFingerprintPrecomputedDigest: an admitted graph keys a request
// exactly as hashing the raw graph it was admitted from does, also
// after the edge's shape inference wrote into the admitted graph.
func TestFingerprintPrecomputedDigest(t *testing.T) {
	g, err := models.Build("shufflenetv2-0.5")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Graph: g, Platform: "a100", Batch: 4}
	hashed, err := Fingerprint(opts)
	if err != nil {
		t.Fatal(err)
	}
	admitted, errs := graph.Admit(g.Clone())
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	for _, name := range admitted.Inputs {
		admitted.Tensor(name).Shape[0] = 3
	}
	if err := admitted.InferShapes(); err != nil {
		t.Fatal(err)
	}
	opts.Graph = admitted
	given, err := Fingerprint(opts)
	if err != nil {
		t.Fatal(err)
	}
	if given != hashed {
		t.Fatalf("admitted graph keyed differently from its raw form: %s vs %s", given, hashed)
	}
}

// TestSingleflightDedup floods one configuration from many goroutines
// through a gated profiler and checks exactly one execution happened.
func TestSingleflightDedup(t *testing.T) {
	var execs atomic.Int64
	gate := make(chan struct{})
	s := NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		execs.Add(1)
		<-gate
		return core.ProfileCtx(ctx, opts)
	})

	const waiters = 16
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	reports := make([]*core.Report, waiters)
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			reports[i], errs[i] = s.ProfileCtx(context.Background(), baseOpts)
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	close(gate)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("pipeline executed %d times for %d concurrent identical requests", n, waiters)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("waiter %d received a different report", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits+st.Dedups != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d shared results", st, waiters-1)
	}
}

// TestWaiterCancellation: a waiter whose context is cancelled abandons
// the shared execution without affecting the leader.
func TestWaiterCancellation(t *testing.T) {
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	s := NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		close(leaderIn)
		<-gate
		return core.ProfileCtx(ctx, opts)
	})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.ProfileCtx(context.Background(), baseOpts)
		leaderDone <- err
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.ProfileCtx(ctx, baseOpts)
		waiterDone <- err
	}()
	// Let the waiter attach, then cancel it.
	for s.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

// TestWaiterOutlivesCancelledLeader: when the caller that leads a key
// hangs up, its waiters have not failed. A waiter whose own context is
// live leads the key afresh and gets the report, instead of the
// leader's context.Canceled (which proofd would answer as a 499 to a
// client that is still there).
func TestWaiterOutlivesCancelledLeader(t *testing.T) {
	var execs atomic.Int64
	s := NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		if execs.Add(1) == 1 {
			<-ctx.Done() // the first leader runs until its caller hangs up
			return nil, ctx.Err()
		}
		return &core.Report{Model: opts.Model, Platform: opts.Platform}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.ProfileCtx(ctx, baseOpts)
		leaderDone <- err
	}()
	for s.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	type served struct {
		rep *core.Report
		out Outcome
		err error
	}
	waiterDone := make(chan served, 1)
	go func() {
		rep, out, err := s.ProfileOutcome(context.Background(), baseOpts)
		waiterDone <- served{rep, out, err}
	}()
	for s.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	got := <-waiterDone
	if got.err != nil || got.rep == nil || got.rep.Model != baseOpts.Model || got.out != OutcomeMiss {
		t.Fatalf("waiter: outcome %v err %v, want the report from an execution it led", got.out, got.err)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("executions = %d, want 2", n)
	}
}

func TestErrorsNotCached(t *testing.T) {
	var execs atomic.Int64
	sentinel := errors.New("transient")
	s := NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		if execs.Add(1) == 1 {
			return nil, sentinel
		}
		return core.ProfileCtx(ctx, opts)
	})
	if _, err := s.ProfileCtx(context.Background(), baseOpts); !errors.Is(err, sentinel) {
		t.Fatalf("first call err = %v, want sentinel", err)
	}
	if _, err := s.ProfileCtx(context.Background(), baseOpts); err != nil {
		t.Fatalf("second call err = %v, want retried success", err)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("executions = %d, want 2 (errors must not be cached)", n)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(2)
	seeds := []uint64{1, 2, 3}
	for _, seed := range seeds {
		o := baseOpts
		o.Seed = seed
		if _, err := s.ProfileCtx(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2 / 1 eviction", st)
	}
	// Seed 1 was evicted (least recently used): re-requesting it must
	// miss; seed 3 must hit.
	o := baseOpts
	o.Seed = 3
	if _, err := s.ProfileCtx(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Hits != st.Hits+1 {
		t.Fatalf("recent entry missed: %+v", got)
	}
	o.Seed = 1
	if _, err := s.ProfileCtx(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Misses != st.Misses+1 {
		t.Fatalf("evicted entry unexpectedly hit: %+v", got)
	}
}

func TestReset(t *testing.T) {
	s := New(0)
	if _, err := s.ProfileCtx(context.Background(), baseOpts); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	st := s.Stats()
	if st.Size != 0 || st.Evictions != 0 {
		t.Fatalf("stats after reset = %+v, want nothing stored and nothing evicted", st)
	}
	if _, err := s.ProfileCtx(context.Background(), baseOpts); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Misses != 2 {
		t.Fatalf("stats after reset = %+v, want second miss", got)
	}
	// A run after the Reset stores its report again.
	if _, out, err := s.ProfileOutcome(context.Background(), baseOpts); err != nil || out != OutcomeHit {
		t.Fatalf("repeat after the re-run: outcome %v err %v, want a hit", out, err)
	}
}

// TestConcurrentMixedWorkload hammers the session from many goroutines
// over a small option space — meant for the race detector.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := New(4) // small capacity: force eviction churn too
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				o := baseOpts
				o.Seed = uint64(j % 3)
				o.Batch = 4 << (uint(i) % 2)
				r, err := s.ProfileCtx(context.Background(), o)
				if err != nil {
					t.Error(err)
					return
				}
				// Touch the result to give the race detector a chance
				// to catch shared mutable state.
				r.Layers[0].Name = "scratch"
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Dedups+st.Misses != 48 {
		t.Fatalf("stats = %+v, want 48 requests accounted", st)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight gauge leaked: %+v", st)
	}
}

// TestProfileOutcome pins the per-request outcome classification: a
// cold request is a miss, a repeat a hit, and a concurrent identical
// request a dedup.
func TestProfileOutcome(t *testing.T) {
	block := make(chan struct{})
	var sess *Session
	sess = NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		if opts.Seed == 99 { // the slow config the dedup subtest uses
			<-block
		}
		return &core.Report{Model: opts.Model}, nil
	})

	_, out, err := sess.ProfileOutcome(context.Background(), baseOpts)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("cold request = (%v, %v), want miss", out, err)
	}
	_, out, err = sess.ProfileOutcome(context.Background(), baseOpts)
	if err != nil || out != OutcomeHit {
		t.Fatalf("repeat request = (%v, %v), want hit", out, err)
	}

	slow := baseOpts
	slow.Seed = 99
	leaderOut := make(chan Outcome, 1)
	go func() {
		_, out, _ := sess.ProfileOutcome(context.Background(), slow)
		leaderOut <- out
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sess.Stats().Inflight == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	followerOut := make(chan Outcome, 1)
	go func() {
		_, out, _ := sess.ProfileOutcome(context.Background(), slow)
		followerOut <- out
	}()
	for sess.Stats().Dedups == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(block)
	if out := <-leaderOut; out != OutcomeMiss {
		t.Errorf("leader outcome = %v, want miss", out)
	}
	if out := <-followerOut; out != OutcomeDedup {
		t.Errorf("follower outcome = %v, want dedup", out)
	}
}
