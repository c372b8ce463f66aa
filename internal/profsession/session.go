// Package profsession provides cached, deduplicated profiling sessions
// on top of the core pipeline — the serving layer's answer to the
// observation (Dooly, XSP) that profiling-based analysis only scales
// when repeated runs over the same model/hardware configuration are
// amortized. A Session keys every request by its resolved identity
// (core.Resolve, see Fingerprint) and serves it through one
// internal/cache LRU of encoded reports: repeats are cache hits, and
// concurrent identical requests collapse into a single pipeline
// execution, with hit/miss/eviction/in-flight counters for
// observability. Every report a Session returns is its caller's.
package profsession

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proof/internal/cache"
	"proof/internal/core"
	"proof/internal/faults"
	"proof/internal/graph"
	"proof/internal/memo"
	"proof/internal/obs"
	"proof/internal/parallel"
)

// DefaultCapacity is the report-store capacity, in reports, used when
// a Session is created with capacity <= 0.
const DefaultCapacity = 1024

// RetryPolicy configures transient-failure retries of pipeline
// executions. Retries happen below the cache and inside the
// singleflight slot: duplicate waiters keep sharing the one (retrying)
// execution, and only a final success is ever cached.
type RetryPolicy struct {
	// Attempts is the total number of tries per execution, including
	// the first; <= 1 disables retrying.
	Attempts int
	// Base is the delay before the first retry, doubling per attempt
	// (0 selects 50ms).
	Base time.Duration
	// MaxDelay caps the grown delay (0 selects 2s).
	MaxDelay time.Duration
	// Jitter randomizes each delay by ±fraction (see
	// parallel.Backoff.Jitter).
	Jitter float64
	// AttemptTimeout bounds each individual attempt, so one hung
	// attempt (a deadline blowthrough in a lower layer) burns only
	// its slice of the request budget instead of all of it. 0 means
	// attempts share the caller's deadline. When set, a per-attempt
	// deadline expiry counts as transient (the next attempt may be
	// faster); the caller's own deadline is always respected.
	AttemptTimeout time.Duration
}

func (p RetryPolicy) backoff() parallel.Backoff {
	b := parallel.Backoff{Attempts: p.Attempts, Base: p.Base, Max: p.MaxDelay, Jitter: p.Jitter}
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	return b
}

// retryableClass reports whether err is worth another attempt on its
// own merits (ignoring the caller's context state).
func (p RetryPolicy) retryableClass(err error) bool {
	if faults.IsTransient(err) {
		return true
	}
	// With a per-attempt timeout, an attempt-level deadline expiry is
	// transient by construction; without one, DeadlineExceeded means
	// the caller's own budget is gone.
	return p.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded)
}

// Config assembles a Session with the full resilience stack. The zero
// value of every field selects a sane default; Session s built by New
// use a zero Retry (no retries) and no breaker.
type Config struct {
	// Capacity bounds the report store in reports (<= 0 selects
	// DefaultCapacity).
	Capacity int
	// Profile executes a cache miss (nil selects core.ProfileCtx).
	Profile core.ProfileFunc
	// Retry is the transient-failure retry policy.
	Retry RetryPolicy
	// Breaker enables the circuit breaker (see BreakerConfig).
	Breaker BreakerConfig
	// Memo optionally attaches a shared memo store (internal/memo): a
	// report-store miss is served from it when it holds the key, before
	// any circuit or retry, and every report the session executes is
	// put there. Several sessions may share one store.
	Memo *memo.Store
}

// Stats is a point-in-time snapshot of a Session's counters.
type Stats struct {
	// Hits counts requests served from the cache.
	Hits int64 `json:"hits"`
	// Misses counts requests that missed the report store: each executed
	// the pipeline, or the memo store served it.
	Misses int64 `json:"misses"`
	// Evictions counts reports dropped by the LRU policy.
	Evictions int64 `json:"evictions"`
	// Dedups counts requests that attached to an identical in-flight
	// execution instead of starting their own (singleflight shares).
	Dedups int64 `json:"dedups"`
	// Inflight is the number of pipeline executions running right now.
	Inflight int64 `json:"inflight"`
	// Size is the number of reports stored.
	Size int `json:"size"`
	// Capacity is the store's capacity in reports.
	Capacity int `json:"capacity"`
	// Retries counts re-attempts of transiently failed executions.
	Retries int64 `json:"retries"`
	// RetriesExhausted counts executions that failed transiently on
	// every configured attempt.
	RetriesExhausted int64 `json:"retries_exhausted"`
}

// Outcome classifies how a request was served — the per-request
// counterpart of the aggregate Stats counters, so a serving layer can
// annotate each response (e.g. an X-Cache header) without diffing
// counter snapshots.
type Outcome string

const (
	// OutcomeHit: served from the report store.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: this request missed the report store, and executed
	// the pipeline or was served by the memo store.
	OutcomeMiss Outcome = "miss"
	// OutcomeDedup: attached to an identical in-flight execution.
	OutcomeDedup Outcome = "dedup"
	// OutcomeRejected: failed fast on an open circuit, without
	// executing the pipeline (the error is a *CircuitOpenError).
	OutcomeRejected Outcome = "rejected"
)

// Session is a cached profiling front-end. It is safe for concurrent
// use; the zero value is not usable — construct with New.
type Session struct {
	profile  core.ProfileFunc
	retry    RetryPolicy
	breakers *breakerSet // nil when the breaker is disabled
	memo     *memo.Store // nil when memoization is disabled

	// reports is the one report store. It keeps each report as its
	// binary encoding (core.Report.AppendBinary), one pointer-free
	// string that the garbage collector never scans, and a hit decodes
	// it into a report of its own.
	reports *cache.LRU[string, string]

	retries, retriesExhausted atomic.Int64
}

// New creates a session with the given report-store capacity
// (<= 0 selects DefaultCapacity), no retries and no breaker.
func New(capacity int) *Session {
	return NewWithConfig(Config{Capacity: capacity})
}

// NewWithProfiler creates a session that executes misses through a
// custom profiling function — used by tests to count and delay
// executions.
func NewWithProfiler(capacity int, profile core.ProfileFunc) *Session {
	return NewWithConfig(Config{Capacity: capacity, Profile: profile})
}

// NewWithConfig creates a session with the full resilience
// configuration: store bound, retry policy and circuit breaker.
func NewWithConfig(cfg Config) *Session {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Profile == nil {
		cfg.Profile = core.ProfileCtx
	}
	s := &Session{
		profile: cfg.Profile,
		retry:   cfg.Retry,
		memo:    cfg.Memo,
		reports: cache.New[string, string](cfg.Capacity),
	}
	if cfg.Breaker.Threshold > 0 {
		s.breakers = newBreakerSet(cfg.Breaker)
	}
	return s
}

// ProfileCtx serves a profiling request, from cache when an identical
// request (same Fingerprint) has run before, otherwise by
// executing the pipeline once — concurrent identical requests share
// that single execution. The returned report is the caller's: it shares
// nothing another caller can write, so the caller may mutate it freely.
// Errors are never cached: a failed configuration is retried on the
// next request.
//
// When opts.Graph is set, it is passed on as is: the pipeline never
// writes it (each run profiles a view), so the caller's graph and its
// content fingerprint stay unchanged.
func (s *Session) ProfileCtx(ctx context.Context, opts core.Options) (*core.Report, error) {
	rep, _, err := s.ProfileOutcome(ctx, opts)
	return rep, err
}

// ProfileOutcome is ProfileCtx, reporting additionally how the request
// was served: from cache (OutcomeHit), by executing the pipeline
// (OutcomeMiss), or by sharing an identical in-flight execution
// (OutcomeDedup). A miss returns the pipeline's own report and stores
// its encoding; a hit or a dedup decodes the stored encoding into a
// fresh report (core.DecodeReport), whose strings alias the stored
// string. A miss the memo store serves (Config.Memo) stores the
// memo's encoding and decodes it in the same way, without executing
// anything. On error the outcome still describes the path taken (a
// failed execution reports OutcomeMiss). A request core.Resolve refuses
// fails before the cache: it reports no outcome (""), counts no miss
// and moves no circuit.
func (s *Session) ProfileOutcome(ctx context.Context, opts core.Options) (*core.Report, Outcome, error) {
	ctx, sp := obs.Start(ctx, "session")
	sp.SetAttr("model", opts.Model)
	sp.SetAttr("platform", opts.Platform)
	rep, out, err := s.profileOutcome(ctx, opts)
	sp.SetAttr("cache", string(out))
	sp.EndErr(err)
	return rep, out, err
}

func (s *Session) profileOutcome(ctx context.Context, opts core.Options) (*core.Report, Outcome, error) {
	r, err := core.Resolve(opts)
	if err != nil {
		return nil, "", err
	}
	var led *core.Report
	fn := func() (string, error) {
		if s.memo != nil {
			if enc, ok := s.memo.Get(r.Key); ok {
				return enc, nil
			}
		}
		rep, err := s.lead(ctx, r, opts)
		if err != nil {
			return "", err
		}
		led = rep
		enc := encodeReport(rep)
		if s.memo != nil {
			s.memo.Put(r.Key, enc, len(rep.Layers))
		}
		return enc, nil
	}
	enc, out, err := s.reports.Do(ctx, r.Key, fn)
	// A waiter whose leader's caller hung up has not failed: while its
	// own ctx lives, it leads or joins the key afresh.
	for out == cache.Dedup && errors.Is(err, context.Canceled) && ctx.Err() == nil {
		enc, out, err = s.reports.Do(ctx, r.Key, fn)
	}
	if err != nil {
		var coe *CircuitOpenError
		if errors.As(err, &coe) {
			return nil, OutcomeRejected, err
		}
		// A dedup waiter reports any other error of the leader rather
		// than retrying: errors are never cached, and retry policy
		// belongs to the caller.
		return nil, Outcome(out), err
	}
	if led != nil {
		return led, OutcomeMiss, nil
	}
	rep, err := core.DecodeReport(enc)
	if err != nil {
		return nil, Outcome(out), fmt.Errorf("profsession: stored report %s: %w", r.Key, err)
	}
	return rep, Outcome(out), nil
}

// encodeBufs recycles the scratch a miss encodes its report into, so
// that the stored string is the only allocation the encoding adds.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeReport returns rep's binary encoding as the string the store
// keeps.
func encodeReport(rep *core.Report) string {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	*buf = rep.AppendBinary((*buf)[:0])
	return string(*buf)
}

// lead runs one report-store miss: only a would-be leader consults
// its circuit (see breakerKey). A panicking execution counts as a
// breaker failure, so a half-open probe that panics re-opens its
// circuit instead of leaving it probing forever. A graph defect
// (*graph.ValidationError, e.g. an inline graph whose shapes do not
// compose at the requested batch) is the caller's fault, not the
// service's: it moves no circuit, so one client's broken graph cannot
// block valid requests sharing its key, and a half-open probe slot it
// took is released.
func (s *Session) lead(ctx context.Context, r core.Resolved, opts core.Options) (*core.Report, error) {
	verdict := verdictFailure // kept when the execution panics
	if s.breakers != nil {
		bkey := breakerKey(r)
		if after, ok := s.breakers.allow(bkey); !ok {
			return nil, &CircuitOpenError{Key: bkey, RetryAfter: after}
		}
		defer func() { s.breakers.record(bkey, verdict) }()
	}
	rep, err := s.execute(ctx, opts)
	switch {
	case err == nil:
		verdict = verdictSuccess
	case ctx.Err() != nil:
		// The requester is gone; cancellation races any real
		// failure, so don't let an abandoned request move the
		// circuit (but do release a half-open probe slot).
		verdict = verdictAbandoned
	default:
		if _, ok := graph.AsValidationError(err); ok {
			verdict = verdictAbandoned
		}
	}
	return rep, err
}

// breakerKey names a request's circuit: "<zoo key>|<platform>", or
// "inline|<platform>" for every inline graph. A graph's name is the
// client's choice: keyed by it, clients could grow the circuits without
// bound, or open a zoo model's circuit by naming a graph after it.
func breakerKey(r core.Resolved) string {
	if r.Graph != nil {
		return "inline|" + r.Plat.Key
	}
	return r.Model + "|" + r.Plat.Key
}

// execute runs one pipeline execution under the session's retry
// policy: transient failures (faults.ClassTransient, or per-attempt
// timeouts when AttemptTimeout is set) are retried with capped
// exponential backoff and jitter, each attempt under its own timeout
// and "attempt" span. Retrying happens inside the singleflight slot,
// so duplicate requests share the whole retrying execution, and only
// the final result is ever considered for caching.
func (s *Session) execute(ctx context.Context, run core.Options) (*core.Report, error) {
	pol := s.retry
	if pol.Attempts <= 1 && pol.AttemptTimeout <= 0 {
		return s.profile(ctx, run)
	}
	retryable := func(err error) bool {
		if ctx.Err() != nil {
			return false // the caller is gone; stop retrying
		}
		if !pol.retryableClass(err) {
			return false
		}
		s.retries.Add(1)
		return true
	}
	rep, err := parallel.Retry(ctx, pol.backoff(), retryable,
		func(ctx context.Context, attempt int) (*core.Report, error) {
			actx := ctx
			cancel := func() {}
			if pol.AttemptTimeout > 0 {
				actx, cancel = context.WithTimeout(ctx, pol.AttemptTimeout)
			}
			defer cancel()
			actx, sp := obs.Start(actx, "attempt")
			sp.SetAttrInt("attempt", int64(attempt))
			rep, err := s.profile(actx, run)
			sp.EndErr(err)
			return rep, err
		})
	if err != nil && ctx.Err() == nil && pol.retryableClass(err) {
		// A retryable failure survived every attempt.
		s.retriesExhausted.Add(1)
	}
	return rep, err
}

// Fingerprint returns the key a Session caches a request under, its
// core.Resolve key: two spellings of one experiment (batch 0 or the
// platform's default batch, ...) share it. A request Resolve refuses
// returns Resolve's typed error instead.
func Fingerprint(opts core.Options) (string, error) {
	r, err := core.Resolve(opts)
	return r.Key, err
}

// Stats snapshots the session counters.
func (s *Session) Stats() Stats {
	// Each fast fail is a leader that took a report-store miss without
	// executing. Reading fast fails first means every rejection counted
	// already has its miss counted below.
	var rejected int64
	if s.breakers != nil {
		_, _, _, rejected = s.breakers.snapshot()
	}
	rs := s.reports.Stats()
	return Stats{
		Hits:             rs.Hits,
		Misses:           rs.Misses - rejected,
		Evictions:        rs.Evictions,
		Dedups:           rs.Dedups,
		Inflight:         int64(rs.Inflight),
		Size:             rs.Len,
		Capacity:         rs.Cap,
		Retries:          s.retries.Load(),
		RetriesExhausted: s.retriesExhausted.Load(),
	}
}

// Reset empties the report store: no report stored before it, or by an
// execution begun before it, hits again. Counters are preserved (they
// are lifetime totals).
func (s *Session) Reset() {
	s.reports.Reset()
}
