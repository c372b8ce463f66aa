// Package workload is the traffic side of the serving story: a
// deterministic, seedable engine that drives proofd (over HTTP) or an
// in-process profiling session with realistic sustained traffic and
// grades what comes back against declared SLOs.
//
// The pieces compose left to right:
//
//   - an arrival process (Arrivals) decides WHEN requests fire —
//     closed-loop virtual clients, open-loop Poisson, diurnal ramps,
//     flash crowds, or the replay of a recorded trace;
//   - a request mix (Mix) decides WHAT each request asks for —
//     weighted (model, platform) items, optionally with hot-key skew
//     (one key taking 90% of traffic) and per-item seed fans for
//     cache busting;
//   - a client behavior (Behavior) decides HOW requests misbehave —
//     cancel-happy clients that abandon responses, slow-loris clients
//     that dribble their request bodies;
//   - a Target executes one request — HTTPTarget against a live
//     proofd, SessionTarget against an in-process
//     profsession.Session — and classifies the response;
//   - the engine (Run) executes a compiled Plan and accumulates a
//     Result; Grade turns a Result plus an SLO into a Verdict.
//
// Everything ahead of execution is deterministic: BuildPlan compiles a
// scenario and a seed into the exact sequence of (offset, request)
// pairs, so two runs with the same seed produce identical request
// schedules (Plan.Digest pins this). Only the measured latencies and
// the interleaving of concurrent completions vary between runs.
package workload

import (
	"context"
	"time"
)

// Request is one profiling request the engine issues: the wire-level
// subset of core.Options that load scenarios exercise.
type Request struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`
	Batch    int    `json:"batch,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Mode     string `json:"mode,omitempty"`

	// SlowLoris is client behavior, not request identity: an HTTP
	// target dribbles the request body when set. The engine stamps it
	// from the plan at execution time; it never serializes.
	SlowLoris bool `json:"-"`
}

// Class buckets every response into the resilience contract's outcome
// classes. Every request the engine issues resolves into exactly one.
type Class int

const (
	// ClassOK: a 200 (cache hit, miss or dedup).
	ClassOK Class = iota
	// ClassShed: backpressure — 429 over HTTP.
	ClassShed
	// ClassFailed: a structured 5xx (transient exhaustion, open
	// circuit, timeout) or any other terminal error.
	ClassFailed
	// ClassCanceled: the client abandoned the request (cancel-happy
	// behavior, or the run's own context ended mid-request).
	ClassCanceled
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassShed:
		return "shed"
	case ClassFailed:
		return "failed"
	case ClassCanceled:
		return "canceled"
	}
	return "unknown"
}

// Response is a Target's classification of one executed request.
type Response struct {
	// Class is the outcome bucket.
	Class Class
	// Status is the HTTP status code when one exists (0 in process).
	Status int
	// Violation, when non-empty, records a breach of the serving
	// contract itself — a 429 without Retry-After, a 200 whose body is
	// not a report, a 5xx without a structured envelope. Violations
	// fail the verdict regardless of budgets: they mean the server
	// misbehaved, not that it was slow.
	Violation string
}

// Target executes one request against a system under test and
// classifies the outcome. Implementations must be safe for concurrent
// use; ctx carries the per-request cancellation (cancel-happy clients
// cancel it mid-flight).
type Target interface {
	Do(ctx context.Context, req Request) Response
}

// sleepCtx sleeps for d or until ctx ends, reporting whether the full
// sleep elapsed. Zero and negative d return immediately.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
