package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/profsession"
)

// serveOnLoopback starts s.Serve on an ephemeral loopback listener and
// returns the base URL, the cancel that triggers the drain, and the
// channel carrying Serve's return value.
func serveOnLoopback(t *testing.T, s *Server) (url string, shutdown context.CancelFunc, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		done <- s.Serve(ctx, ln) // buffered: never blocks
		close(exited)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-exited:
		case <-time.After(20 * time.Second):
			t.Error("server did not exit during cleanup")
		}
	})
	return "http://" + ln.Addr().String(), cancel, done
}

// TestGracefulShutdownDrains puts a slow profile in flight, triggers
// shutdown, and asserts the serving contract: new work is refused, the
// in-flight request still completes, and Serve returns a clean drain.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		close(started)
		select {
		case <-release:
			return stubReport(opts), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s := New(Config{Session: sess, Logger: quietLogger(), ShutdownTimeout: 15 * time.Second})
	url, shutdown, done := serveOnLoopback(t, s)

	// Slow request in flight.
	type reply struct {
		status int
		body   string
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/profile", "application/json",
			strings.NewReader(`{"model":"resnet-50","platform":"a100"}`))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{status: resp.StatusCode, body: string(body)}
	}()
	<-started

	shutdown()
	waitFor(t, "drain flag", func() bool { return s.draining.Load() })

	// New work must be refused while draining: either the listener is
	// already closed (dial error) or the fail-fast path answers 503.
	resp, err := http.Post(url+"/v1/profile", "application/json",
		strings.NewReader(`{"model":"resnet-50","platform":"a100","seed":9}`))
	if err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("request during drain got %d, want refusal (503 or connection error)", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Serve must still be waiting on the in-flight request.
	select {
	case err := <-done:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != 200 {
		t.Fatalf("in-flight request got %d during drain (body %s)", r.status, r.body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain completed")
	}
}

// TestDrainingCarriesRetryAfter: the fail-fast 503 a draining server
// answers is a 503 like any other, so it tells the client when to
// retry (against another replica, or this one once it restarts).
func TestDrainingCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.draining.Store(true)
	resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet-50","platform":"a100"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != "draining" {
		t.Errorf("code %q, want draining", env.Error.Code)
	}
}

// TestShutdownHonorsDeadline pins the other half of the contract: a
// request that never finishes cannot hold shutdown hostage past
// ShutdownTimeout.
func TestShutdownHonorsDeadline(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release) // let the stuck handler goroutine exit after the test
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		close(started)
		<-release
		return stubReport(opts), nil
	})
	s := New(Config{Session: sess, Logger: quietLogger(), ShutdownTimeout: 100 * time.Millisecond})
	url, shutdown, done := serveOnLoopback(t, s)

	go func() {
		resp, err := http.Post(url+"/v1/profile", "application/json",
			strings.NewReader(`{"model":"resnet-50","platform":"a100"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	begin := time.Now()
	shutdown()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Serve = %v, want context.DeadlineExceeded", err)
		}
		if took := time.Since(begin); took > 5*time.Second {
			t.Errorf("deadline-bounded shutdown took %v", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not honor its deadline")
	}
}
