package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/faults"
	"proof/internal/profsession"
	"proof/internal/workload"
)

// scrapeMetrics fetches the /metrics page as text.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricValue extracts one series' value from an exposition page. The
// series name must match exactly, label set included; -1 means absent.
func metricValue(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s has unparsable value %q", series, rest)
		}
		return v
	}
	return -1
}

// assertNoLeakedSlots waits for every admission slot and pipeline
// execution to drain — a stuck counter here means a leaked slot.
func assertNoLeakedSlots(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "admission slots to drain", func() bool {
		return s.adm.inflight.Load() == 0 && s.adm.queued.Load() == 0 &&
			s.sess.Stats().Inflight == 0
	})
}

// TestChaosStormResolvesEveryRequest drives a seeded fault storm — 30%
// transient errors plus latency spikes — through the full HTTP stack
// and asserts the resilience contract: every surviving request
// resolves as a success or a structured 5xx/429 carrying Retry-After;
// no admission slot or inflight execution leaks; and, once injection
// stops, every configuration profiles correctly — the cache never
// memorized a failure.
//
// The traffic itself comes from the shared workload library (the
// "chaos-storm" builtin scenario: 8 closed-loop clients x 25 requests,
// every 7th hanging up, over 3 models x 16 seeds) so the chaos suite
// and `proofload -name chaos-storm` drive byte-identical schedules.
// The HTTP target owns the contract checks the workers used to make
// inline: 200 bodies must parse and name the requested model, 429/503
// must carry Retry-After, 503 a structured envelope — any breach
// surfaces as a Result violation.
func TestChaosStormResolvesEveryRequest(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:           42,
		ErrorRate:      0.3,
		TransientShare: 1.0,
		LatencyRate:    0.1,
		Latency:        2 * time.Millisecond,
	})
	profile := faults.Wrap(inj, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		return stubReport(opts), nil
	})
	sess := profsession.NewWithConfig(profsession.Config{
		Capacity: 64,
		Profile:  profile,
		Retry: profsession.RetryPolicy{
			Attempts: 4,
			Base:     time.Millisecond,
			MaxDelay: 4 * time.Millisecond,
			Jitter:   0.2,
		},
		Breaker: profsession.BreakerConfig{Threshold: 8, Cooldown: 50 * time.Millisecond},
	})
	s, ts := newTestServer(t, Config{
		Session:        sess,
		MaxInflight:    4,
		MaxQueue:       64,
		QueueWait:      10 * time.Second,
		RequestTimeout: 10 * time.Second,
	})

	sc, ok := workload.Builtin("chaos-storm")
	if !ok {
		t.Fatal("chaos-storm builtin scenario missing")
	}
	plan, err := workload.BuildPlan(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(context.Background(), plan,
		workload.NewHTTPTarget(ts.URL), workload.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if extra := res.ViolationCount - int64(len(res.Violations)); extra > 0 {
		t.Errorf("... and %d more contract violation(s)", extra)
	}
	if res.OK == 0 {
		t.Error("storm produced no successful responses")
	}
	t.Logf("storm: %d ok, %d shed, %d failed, %d canceled; injector %+v",
		res.OK, res.Shed, res.Failed, res.Canceled, inj.Stats())

	// Cancelled clients and failures must not leak admission slots or
	// inflight executions.
	assertNoLeakedSlots(t, s)

	// With injection off, every configuration in the storm's mix must
	// profile cleanly: whatever the storm cached, it never cached a
	// failure.
	inj.Disable()
	for _, shape := range plan.Distinct() {
		body := fmt.Sprintf(`{"model":%q,"platform":%q,"batch":%d,"seed":%d}`,
			shape.Model, shape.Platform, shape.Batch, shape.Seed)
		resp := postJSON(t, ts.URL+"/v1/profile", body)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-storm profile failed (%d): %.120s", resp.StatusCode, raw)
		}
		var rep struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("post-storm report does not parse: %v", err)
		}
		if rep.Model != shape.Model {
			t.Errorf("cache served the wrong report: asked %q, got model %q", shape.Model, rep.Model)
		}
	}

	// The retry machinery must be visible on /metrics.
	page := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, page, "proofd_session_retries_total"); v <= 0 {
		t.Errorf("proofd_session_retries_total = %v after a 30%% fault storm", v)
	}
}

// TestChaosBreakerLifecycle walks one (model, platform) circuit
// through its whole life over HTTP: consecutive failures open it,
// open fast-fails with a structured 503 circuit_open + Retry-After,
// the cooldown admits a half-open probe, and a probe success closes
// it again — each state visible in /metrics.
func TestChaosBreakerLifecycle(t *testing.T) {
	const cooldown = 60 * time.Millisecond
	var failing atomic.Bool
	failing.Store(true)
	sess := profsession.NewWithConfig(profsession.Config{
		Capacity: 8,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if failing.Load() {
				return nil, faults.Transient(errors.New("backend down"))
			}
			return stubReport(opts), nil
		},
		Breaker: profsession.BreakerConfig{Threshold: 3, Cooldown: cooldown},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	body := `{"model":"resnet-50","platform":"a100","batch":8,"seed":1}`

	// Three consecutive failures: transparent 503s, then the circuit
	// opens.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/profile", body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("failure %d: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("failure %d: transient 503 without Retry-After", i)
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != "upstream_transient" {
			t.Errorf("failure %d: code %q, want upstream_transient", i, env.Error.Code)
		}
	}

	// Open circuit: fast structured rejection without touching the
	// profiler.
	resp := postJSON(t, ts.URL+"/v1/profile", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d, want 503", resp.StatusCode)
	}
	retryAfter := resp.Header.Get("Retry-After")
	if retryAfter == "" {
		t.Error("open circuit 503 without Retry-After")
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", retryAfter)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != "circuit_open" {
		t.Errorf("open circuit code %q, want circuit_open", env.Error.Code)
	}
	page := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, page, `proofd_session_breaker_state{key="resnet-50|a100"}`); v != 2 {
		t.Errorf("open breaker_state = %v, want 2", v)
	}
	if v := metricValue(t, page, "proofd_session_breaker_opens_total"); v < 1 {
		t.Errorf("breaker_opens_total = %v, want >= 1", v)
	}
	if v := metricValue(t, page, "proofd_session_breaker_fast_fails_total"); v < 1 {
		t.Errorf("breaker_fast_fails_total = %v, want >= 1", v)
	}

	// After the cooldown the half-open probe runs for real; with the
	// backend recovered it succeeds and closes the circuit.
	failing.Store(false)
	time.Sleep(cooldown + 20*time.Millisecond)
	resp = postJSON(t, ts.URL+"/v1/profile", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: status %d, want 200", resp.StatusCode)
	}
	page = scrapeMetrics(t, ts.URL)
	if v := metricValue(t, page, `proofd_session_breaker_state{key="resnet-50|a100"}`); v != 0 {
		t.Errorf("closed breaker_state = %v, want 0", v)
	}
	if v := metricValue(t, page, "proofd_session_breaker_closes_total"); v < 1 {
		t.Errorf("breaker_closes_total = %v, want >= 1", v)
	}
}

// TestChaosStoredReportDuringOutage pins what a stored report is worth
// when profiling fails. A report is a deterministic function of its
// key, so during an outage a stored key is an ordinary hit: the same
// bytes as before, with X-Cache: hit. Every other failure answers
// through the structured error path, never as a 200: a key never
// profiled, and a stored key after Session.Reset, both answer 503
// upstream_transient with Retry-After.
func TestChaosStoredReportDuringOutage(t *testing.T) {
	var failing atomic.Bool
	sess := profsession.NewWithConfig(profsession.Config{
		Capacity: 8,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if failing.Load() {
				return nil, faults.Transient(errors.New("backend down"))
			}
			return stubReport(opts), nil
		},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	const stored = `{"model":"resnet-50","platform":"a100","batch":8,"seed":1}`
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/profile", body)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	wantTransient := func(what string, resp *http.Response, raw []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503: %.120s", what, resp.StatusCode, raw)
			return
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want 1", what, got)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "upstream_transient" {
			t.Errorf("%s: code %q (err %v), want upstream_transient", what, env.Error.Code, err)
		}
	}

	resp, first := post(stored)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("healthy profile: status %d, X-Cache %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	failing.Store(true)
	resp, raw := post(stored)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stored key during the outage: status %d, want 200: %.120s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("stored key during the outage: X-Cache = %q, want hit", got)
	}
	if got := resp.Header.Values("X-Degraded"); len(got) != 0 {
		t.Errorf("stored key during the outage: X-Degraded = %q, want none", got)
	}
	if !bytes.Equal(raw, first) {
		t.Errorf("hit body differs from the first response:\n%s\nwant\n%s", raw, first)
	}

	resp, raw = post(`{"model":"resnet-18","platform":"a100","batch":8,"seed":9}`)
	wantTransient("never-profiled key", resp, raw)

	sess.Reset()
	resp, raw = post(stored)
	wantTransient("stored key after Reset", resp, raw)
	if resp.Header.Get("X-Cache") != "" {
		t.Errorf("stored key after Reset: X-Cache = %q, want none on an error", resp.Header.Get("X-Cache"))
	}

	page := scrapeMetrics(t, ts.URL)
	for _, gone := range []string{"proofd_degraded_responses_total", "proofd_session_stale_hits_total"} {
		if strings.Contains(page, gone) {
			t.Errorf("/metrics still names %s", gone)
		}
	}
}

// TestChaosCancelledClientsReleaseSlots pins the slot-reclamation
// contract under the worst case: every inflight execution is stuck
// until its context dies, every client hangs up, and the server must
// return to a fully idle admission state and then serve a healthy
// request.
func TestChaosCancelledClientsReleaseSlots(t *testing.T) {
	var healthy atomic.Bool
	sess := profsession.NewWithConfig(profsession.Config{
		Capacity: 8,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if healthy.Load() {
				return stubReport(opts), nil
			}
			<-ctx.Done() // a hung backend: only cancellation ends it
			return nil, ctx.Err()
		},
	})
	s, ts := newTestServer(t, Config{
		Session:     sess,
		MaxInflight: 1,
		MaxQueue:    4,
		QueueWait:   10 * time.Second,
	})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"resnet-50","platform":"a100","seed":%d}`, i)
			req, _ := http.NewRequestWithContext(ctx, "POST",
				ts.URL+"/v1/profile", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	// Let the requests hit the stuck backend / queue, then hang up.
	waitFor(t, "requests to occupy the server", func() bool {
		return s.adm.inflight.Load() >= 1
	})
	cancel()
	wg.Wait()

	assertNoLeakedSlots(t, s)

	// The freed slot serves a healthy request normally.
	healthy.Store(true)
	resp := postJSON(t, ts.URL+"/v1/profile",
		`{"model":"resnet-50","platform":"a100","seed":99}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d, want 200", resp.StatusCode)
	}
}
