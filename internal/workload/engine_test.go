package workload

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeTarget classifies requests via a function and records every
// call — the engine's system-under-test stand-in.
type fakeTarget struct {
	mu      sync.Mutex
	calls   []Request
	respond func(ctx context.Context, req Request) Response
}

func (f *fakeTarget) Do(ctx context.Context, req Request) Response {
	f.mu.Lock()
	f.calls = append(f.calls, req)
	f.mu.Unlock()
	if f.respond != nil {
		return f.respond(ctx, req)
	}
	return Response{Class: ClassOK}
}

func (f *fakeTarget) requests() []Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Request(nil), f.calls...)
}

// closedScenario is a small deterministic closed-loop scenario shared
// by the engine tests.
func closedScenario() *Scenario {
	return &Scenario{
		Name:     "engine-test",
		Seed:     1,
		Arrivals: Arrivals{Kind: KindClosed, Clients: 3, Requests: 8},
		Mix: Mix{Items: []Item{
			{Model: "resnet-50", Platform: "a100", Batch: 8, Seeds: 4},
			{Model: "resnet-18", Platform: "a100", Batch: 8, Seeds: 4},
		}},
	}
}

func TestPlanDigestPinsSchedule(t *testing.T) {
	sc := closedScenario()
	p1, err := BuildPlan(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Digest() != p2.Digest() {
		t.Error("same seed produced different plan digests")
	}
	p3, err := BuildPlan(sc, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Digest() == p1.Digest() {
		t.Error("different seeds produced the same plan digest")
	}
	if got, want := p1.Requests(), 24; got != want {
		t.Errorf("plan requests = %d, want %d", got, want)
	}

	open := &Scenario{
		Name:     "open-test",
		Arrivals: Arrivals{Kind: KindPoisson, Rate: 2000, Duration: Duration(50 * time.Millisecond)},
		Mix:      sc.Mix,
	}
	o1, err := BuildPlan(open, 9)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := BuildPlan(open, 9)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Digest() != o2.Digest() {
		t.Error("open-loop plans with the same seed diverge")
	}
}

func TestClosedLoopRunIssuesEveryPlannedRequest(t *testing.T) {
	sc := closedScenario()
	plan, err := BuildPlan(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &fakeTarget{}
	res, err := Run(context.Background(), plan, tgt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 24 || res.OK != 24 {
		t.Errorf("result = %d requests / %d ok, want 24/24", res.Requests, res.OK)
	}
	if res.ScheduleDigest != plan.Digest() {
		t.Error("result does not carry the plan digest")
	}
	if got := len(tgt.requests()); got != 24 {
		t.Errorf("target saw %d requests, want 24", got)
	}
	// Every issued request must come from the mix universe.
	universe := make(map[Request]bool)
	for _, r := range plan.Distinct() {
		universe[r] = true
	}
	for _, r := range tgt.requests() {
		r.SlowLoris = false
		if !universe[r] {
			t.Errorf("issued request %+v outside the mix universe", r)
		}
	}
}

func TestRunTalliesEveryClass(t *testing.T) {
	sc := closedScenario()
	plan, err := BuildPlan(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Classify deterministically off the request's profile seed.
	tgt := &fakeTarget{respond: func(ctx context.Context, req Request) Response {
		switch req.Seed {
		case 1, 2:
			return Response{Class: ClassOK}
		case 3:
			return Response{Class: ClassShed, Status: 429}
		default:
			return Response{Class: ClassFailed, Status: 503}
		}
	}}
	res, err := Run(context.Background(), plan, tgt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK+res.Shed+res.Failed+res.Canceled != res.Requests {
		t.Errorf("classes do not partition requests: %+v", res)
	}
	if res.OK == 0 || res.Shed == 0 || res.Failed == 0 {
		t.Errorf("expected every class to appear under seed fan 4: %+v", res)
	}
	// Latency is only measured over successful responses.
	if res.Latency.Count != res.OK {
		t.Errorf("latency count %d, want ok = %d", res.Latency.Count, res.OK)
	}
}

func TestCancelHappyClientsAreCanceled(t *testing.T) {
	sc := closedScenario()
	sc.Behavior = Behavior{CancelEvery: 2, CancelAfter: Duration(2 * time.Millisecond)}
	plan, err := BuildPlan(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The target takes 50ms unless the per-request context dies first:
	// cancel-happy requests (2ms budget) resolve canceled, the rest ok.
	tgt := &fakeTarget{respond: func(ctx context.Context, req Request) Response {
		select {
		case <-ctx.Done():
			return Response{Class: ClassCanceled}
		case <-time.After(50 * time.Millisecond):
			return Response{Class: ClassOK}
		}
	}}
	res, err := Run(context.Background(), plan, tgt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every 2nd request of each client's 8-request stream: 4 x 3 clients.
	if res.Canceled != 12 || res.OK != 12 {
		t.Errorf("canceled/ok = %d/%d, want 12/12 (%+v)", res.Canceled, res.OK, res)
	}
	// Canceled requests never count against latency or the contract.
	if res.Latency.Count != res.OK {
		t.Errorf("latency count %d includes canceled requests", res.Latency.Count)
	}
}

func TestViolationsFailTheVerdict(t *testing.T) {
	sc := closedScenario()
	plan, err := BuildPlan(sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &fakeTarget{respond: func(ctx context.Context, req Request) Response {
		return Response{Class: ClassShed, Status: 429, Violation: "429 without Retry-After"}
	}}
	res, err := Run(context.Background(), plan, tgt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationCount != res.Requests {
		t.Errorf("violation count = %d, want %d", res.ViolationCount, res.Requests)
	}
	v := Grade(res, SLO{})
	if v.Pass {
		t.Error("verdict passed despite contract violations")
	}
}

func TestOpenLoopRunFiresWholeSchedule(t *testing.T) {
	sc := &Scenario{
		Name:     "open-run",
		Arrivals: Arrivals{Kind: KindPoisson, Rate: 2000, Duration: Duration(100 * time.Millisecond)},
		Mix: Mix{Items: []Item{
			{Model: "resnet-50", Platform: "a100", Seeds: 2},
		}},
	}
	plan, err := BuildPlan(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &fakeTarget{}
	res, err := Run(context.Background(), plan, tgt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Requests) != plan.Requests() {
		t.Errorf("issued %d of %d planned arrivals", res.Requests, plan.Requests())
	}
	if res.OK != res.Requests {
		t.Errorf("open-loop run had non-ok outcomes against an instant target: %+v", res)
	}
}

func TestRunCancellationReturnsPartialResult(t *testing.T) {
	sc := &Scenario{
		Name:     "cancel-run",
		Arrivals: Arrivals{Kind: KindClosed, Clients: 2, Requests: 1000},
		Mix:      Mix{Items: []Item{{Model: "resnet-50", Platform: "a100"}}},
	}
	plan, err := BuildPlan(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	tgt := &fakeTarget{respond: func(_ context.Context, req Request) Response {
		once.Do(cancel) // stop the run after the first response
		return Response{Class: ClassOK}
	}}
	res, err := Run(ctx, plan, tgt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Requests >= 2000 {
		t.Errorf("cancelled run issued %d requests, want a partial tally", res.Requests)
	}
}

func TestRecordThenReplayDrivesSameRequests(t *testing.T) {
	sc := closedScenario()
	plan, err := BuildPlan(sc, 6)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	tgt := &fakeTarget{}
	if _, err := Run(context.Background(), plan, tgt, RunOptions{Record: &trace}); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 24 {
		t.Fatalf("trace has %d entries, want 24", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Offset < entries[i-1].Offset {
			t.Fatalf("trace offsets regress at %d", i)
		}
	}

	replaySc := &Scenario{Name: "replayed", Arrivals: Arrivals{Kind: KindReplay}}
	replayPlan, err := PlanFromTrace(replaySc, entries)
	if err != nil {
		t.Fatal(err)
	}
	tgt2 := &fakeTarget{}
	res, err := Run(context.Background(), replayPlan, tgt2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 24 {
		t.Fatalf("replay issued %d requests, want 24", res.Requests)
	}
	// The replay must drive the exact multiset of recorded requests.
	key := func(rs []Request) []Request {
		out := append([]Request(nil), rs...)
		for i := range out {
			out[i].SlowLoris = false
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Model != b.Model {
				return a.Model < b.Model
			}
			return a.Seed < b.Seed
		})
		return out
	}
	orig, replayed := key(tgt.requests()), key(tgt2.requests())
	for i := range orig {
		if orig[i] != replayed[i] {
			t.Fatalf("replayed request %d = %+v, want %+v", i, replayed[i], orig[i])
		}
	}
}

func TestScenarioLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sc.json"
	src := `{
  "name": "file-test",
  "seed": 9,
  "arrivals": {"kind": "poisson", "rate": 120, "duration": "750ms"},
  "mix": {"hot_share": 0.9, "items": [
    {"model": "resnet-50", "platform": "a100", "batch": 8},
    {"model": "resnet-18", "platform": "a100", "seeds": 4}
  ]},
  "behavior": {"cancel_every": 7, "cancel_after": "1ms"},
  "slo": {"p99": "250ms", "error_budget": 0.01}
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Arrivals.Duration.D() != 750*time.Millisecond {
		t.Errorf("duration = %s, want 750ms", sc.Arrivals.Duration)
	}
	if sc.SLO.P99.D() != 250*time.Millisecond || sc.SLO.ErrorBudget != 0.01 {
		t.Errorf("SLO did not round-trip: %+v", sc.SLO)
	}
	if sc.Mix.HotShare != 0.9 || sc.Behavior.CancelEvery != 7 {
		t.Errorf("mix/behavior did not round-trip")
	}

	// A typoed field must be rejected, not silently ignored, and so
	// must a budget for an outcome the server no longer has.
	for i, src := range []string{
		`{"name":"x","arivals":{"kind":"closed"}}`,
		`{"name":"x","slo":{"error_budget":0.01,"degraded_budget":0.05}}`,
	} {
		bad := fmt.Sprintf("%s.bad%d", path, i)
		if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Errorf("Load accepted a scenario with an unknown field: %s", src)
		}
	}
}

func TestBuiltinScenariosAreValid(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, ok := Builtin(name)
		if !ok {
			t.Fatalf("Builtin(%q) missing", name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
		if sc.Arrivals.Kind == KindReplay {
			continue
		}
		if _, err := BuildPlan(sc, 0); err != nil {
			t.Errorf("builtin %s does not compile: %v", name, err)
		}
	}
}
