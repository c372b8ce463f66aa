package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/profsession"
)

// waitFor polls cond until true or the deadline, failing the test on
// timeout — the tests' only synchronization with server internals.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionBoundsConcurrency floods the server with distinct slow
// requests and asserts, from inside the admission hook, that the
// in-flight bound is never exceeded; that exactly the queue capacity
// waits; and that the overflow is shed with 429 + Retry-After.
func TestAdmissionBoundsConcurrency(t *testing.T) {
	const (
		maxInflight = 2
		maxQueue    = 2
		clients     = 10
	)
	release := make(chan struct{})
	var executed atomic.Int64
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		executed.Add(1)
		select {
		case <-release:
			return stubReport(opts), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, ts := newTestServer(t, Config{
		Session:     sess,
		MaxInflight: maxInflight,
		MaxQueue:    maxQueue,
		QueueWait:   30 * time.Second, // queued requests must survive until release
	})
	var boundViolations atomic.Int64
	s.adm.acquired = func(inflight int64) {
		if inflight > maxInflight {
			boundViolations.Add(1)
		}
	}

	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds defeat singleflight so every admitted
			// request occupies a slot with its own execution.
			body := fmt.Sprintf(`{"model":"resnet-50","platform":"a100","seed":%d}`, i)
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}

	// Steady state under overload: slots full, queue full, the rest
	// already shed.
	waitFor(t, "slots full", func() bool { return s.adm.inflight.Load() == maxInflight })
	waitFor(t, "queue full", func() bool { return s.adm.queued.Load() == maxQueue })
	waitFor(t, "overflow shed", func() bool {
		return s.adm.rejected.Load() == clients-maxInflight-maxQueue
	})
	close(release)
	wg.Wait()
	close(results)

	var ok200, tooMany int
	for r := range results {
		switch r.status {
		case 200:
			ok200++
		case 429:
			tooMany++
			if r.retryAfter == "" {
				t.Error("429 response missing Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok200 != maxInflight+maxQueue || tooMany != clients-maxInflight-maxQueue {
		t.Errorf("200s = %d, 429s = %d; want %d and %d", ok200, tooMany, maxInflight+maxQueue, clients-maxInflight-maxQueue)
	}
	if violations := boundViolations.Load(); violations != 0 {
		t.Errorf("admission hook observed %d in-flight bound violations", violations)
	}
	if hw := s.adm.highWater.Load(); hw != maxInflight {
		t.Errorf("in-flight high water = %d, want %d", hw, maxInflight)
	}
	if got := executed.Load(); got != maxInflight+maxQueue {
		t.Errorf("pipeline executions = %d, want %d", got, maxInflight+maxQueue)
	}
	waitFor(t, "slots drained", func() bool { return s.adm.inflight.Load() == 0 })
}

// TestShedRetryAfterRoundsUpQueueWait: a shed request is told to back
// off for one full queue wait, rounded up to whole seconds like every
// other Retry-After, so a 1.5 s wait answers 2, never less than the
// wait it estimates.
func TestShedRetryAfterRoundsUpQueueWait(t *testing.T) {
	release := make(chan struct{})
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		select {
		case <-release:
			return stubReport(opts), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, ts := newTestServer(t, Config{
		Session:     sess,
		MaxInflight: 1,
		MaxQueue:    1,
		QueueWait:   1500 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"resnet-50","platform":"a100","seed":%d}`, i+1)
			if resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	waitFor(t, "slot and queue full", func() bool { return s.adm.inflight.Load() == 1 && s.adm.queued.Load() == 1 })
	resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet-50","platform":"a100","seed":3}`)
	close(release)
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2 (1.5 s queue wait rounded up)", got)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != "too_many_requests" {
		t.Errorf("code %q, want too_many_requests", env.Error.Code)
	}
}

// TestConcurrentIdenticalRequestsDedup hammers one configuration from
// many clients at once and asserts the session collapses them into a
// single pipeline execution.
func TestConcurrentIdenticalRequestsDedup(t *testing.T) {
	const clients = 8
	var sess *profsession.Session
	var executed atomic.Int64
	sess = profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		executed.Add(1)
		// Hold the leader open until every follower has attached to
		// this execution, so the test cannot pass by lucky timing.
		deadline := time.Now().Add(10 * time.Second)
		for sess.Stats().Dedups < clients-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return stubReport(opts), nil
	})
	_, ts := newTestServer(t, Config{Session: sess, MaxInflight: clients})

	var wg sync.WaitGroup
	statuses := make(chan int, clients)
	caches := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
				strings.NewReader(`{"model":"resnet-50","platform":"a100","batch":8}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
			caches <- resp.Header.Get("X-Cache")
		}()
	}
	wg.Wait()
	close(statuses)
	close(caches)

	for st := range statuses {
		if st != 200 {
			t.Errorf("status %d, want 200", st)
		}
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("pipeline executions = %d, want 1 (singleflight)", got)
	}
	if d := sess.Stats().Dedups; d != clients-1 {
		t.Errorf("dedups = %d, want %d", d, clients-1)
	}
	var miss, dedup int
	for c := range caches {
		switch c {
		case "miss":
			miss++
		case "dedup":
			dedup++
		default:
			t.Errorf("unexpected X-Cache %q", c)
		}
	}
	if miss != 1 || dedup != clients-1 {
		t.Errorf("X-Cache outcomes: %d miss / %d dedup, want 1 / %d", miss, dedup, clients-1)
	}
}

// TestClientCancelPropagatesToProfiler verifies the serving promise
// that an abandoned request stops costing pipeline work: a client
// disconnect must cancel the context the profiler runs under.
func TestClientCancelPropagatesToProfiler(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan struct{})
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		close(started)
		select {
		case <-ctx.Done():
			close(cancelled)
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return stubReport(opts), nil
		}
	})
	s, ts := newTestServer(t, Config{Session: sess})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/profile",
		strings.NewReader(`{"model":"resnet-50","platform":"a100"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-started
	cancel() // client walks away mid-profile

	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("profiler context was not cancelled after client disconnect")
	}
	if err := <-errc; err == nil {
		t.Error("client should observe its own cancellation")
	}
	// The aborted request must release its admission slot.
	waitFor(t, "slot release after cancel", func() bool { return s.adm.inflight.Load() == 0 })
}

// TestLoadMixedTraffic is the -race workout: a mixed population of
// identical (dedup/cache path) and distinct (admission path) requests
// against a small limiter, with the bound asserted via the hook. All
// outcomes must be 200 or a well-formed 429.
func TestLoadMixedTraffic(t *testing.T) {
	const maxInflight = 3
	var slow atomic.Int64
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		slow.Add(1)
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubReport(opts), nil
	})
	s, ts := newTestServer(t, Config{
		Session:     sess,
		MaxInflight: maxInflight,
		MaxQueue:    4,
		QueueWait:   50 * time.Millisecond,
	})
	var maxSeen atomic.Int64
	s.adm.acquired = func(inflight int64) {
		for {
			m := maxSeen.Load()
			if inflight <= m || maxSeen.CompareAndSwap(m, inflight) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	var ok200, tooMany, other atomic.Int64
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every third request is identical; the rest are distinct.
			seed := i
			if i%3 == 0 {
				seed = 0
			}
			body := fmt.Sprintf(`{"model":"resnet-50","platform":"a100","seed":%d}`, seed)
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case 200:
				ok200.Add(1)
			case 429:
				tooMany.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Errorf("%d requests ended in unexpected statuses", other.Load())
	}
	if ok200.Load() == 0 {
		t.Error("no request succeeded under load")
	}
	if got := maxSeen.Load(); got > maxInflight {
		t.Errorf("observed %d concurrent executions, bound is %d", got, maxInflight)
	}
	if hw := s.adm.highWater.Load(); hw > maxInflight {
		t.Errorf("high water %d exceeds bound %d", hw, maxInflight)
	}
	// Under heavy shedding every identical request can get a 429, so
	// assert the cache path deterministically: two identical requests
	// after the storm — the first caches (if the storm didn't), the
	// second must hit.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet-50","platform":"a100","seed":0}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("post-storm identical request status = %d, want 200", resp.StatusCode)
		}
	}
	st := sess.Stats()
	if st.Hits+st.Dedups == 0 {
		t.Error("identical requests produced no cache hits or dedups")
	}
	t.Logf("mixed load: %d ok, %d shed; %d pipeline executions, stats %+v",
		ok200.Load(), tooMany.Load(), slow.Load(), st)
}
