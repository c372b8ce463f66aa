// Package faults provides the failure taxonomy and the deterministic
// fault-injection harness for the profiling stack.
//
// The taxonomy half is production code: backends and profilers wrap
// errors with Transient or Permanent so the resilience layer
// (profsession retries, the circuit breaker, proofd's 503
// upstream_transient with Retry-After) can tell "try again" failures
// from "this will never work" ones. IsTransient is the single
// classification point.
//
// The injector half is a chaos harness: a seedable, concurrency-safe
// Injector wraps any profile-func-shaped seam (see Wrap) and injects
// error returns, latency spikes and context-deadline blowthroughs at
// configured rates. Given the same seed and call sequence it replays
// the same fault schedule, which keeps chaos tests debuggable.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions failures by whether retrying can help.
type Class int

const (
	// ClassTransient marks failures expected to clear on retry:
	// measurement jitter, a busy device, a dropped connection.
	ClassTransient Class = iota
	// ClassPermanent marks failures retrying cannot fix: an
	// unsupported op, an invalid configuration, a missing platform.
	ClassPermanent
)

// String returns "transient" or "permanent".
func (c Class) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "permanent"
}

// Error attaches a failure Class to an underlying error. It unwraps,
// so errors.Is/As see through it.
type Error struct {
	Class Class
	Err   error
}

func (e *Error) Error() string { return e.Class.String() + ": " + e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Transient wraps err as a retryable failure. Returns nil for nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Class: ClassTransient, Err: err}
}

// Permanent wraps err as a non-retryable failure. Returns nil for nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Class: ClassPermanent, Err: err}
}

// IsTransient reports whether err carries ClassTransient anywhere in
// its chain. Unclassified errors are not transient: retrying is an
// opt-in contract, and retrying an unknown failure against a pipeline
// that is deterministic by default would only add latency.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Class == ClassTransient
}

// Config sets the fault schedule of an Injector. All rates are
// probabilities in [0, 1] evaluated independently per call.
type Config struct {
	// Seed makes the schedule reproducible; two injectors with the
	// same seed and call sequence inject identical faults.
	Seed uint64
	// ErrorRate is the probability a call fails with an injected
	// error instead of reaching the wrapped function.
	ErrorRate float64
	// TransientShare is the fraction of injected errors classified
	// ClassTransient (the rest are ClassPermanent). Injectors built
	// by New default a zero value to 1: transient storms are the
	// common chaos scenario.
	TransientShare float64
	// LatencyRate is the probability a call is delayed by Latency
	// before proceeding (the delay respects ctx cancellation).
	LatencyRate float64
	// Latency is the injected spike magnitude.
	Latency time.Duration
	// BlowthroughRate is the probability a call blocks until the
	// caller's context expires — modelling a hung lower layer that
	// ignores its deadline budget and forces the caller's
	// per-attempt timeout to fire.
	BlowthroughRate float64
}

// Stats counts what an Injector has done so far.
type Stats struct {
	// Calls is the number of times the wrapped seam was invoked
	// (including calls that then had a fault injected).
	Calls int64 `json:"calls"`
	// Transient and Permanent count injected error returns by class.
	Transient int64 `json:"transient"`
	Permanent int64 `json:"permanent"`
	// Spikes counts injected latency delays.
	Spikes int64 `json:"spikes"`
	// Blowthroughs counts calls forced to block until ctx expiry.
	Blowthroughs int64 `json:"blowthroughs"`
}

// Injector injects faults per its Config. Safe for concurrent use;
// construct with New.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	enabled atomic.Bool

	calls, transient, permanent, spikes, blowthroughs atomic.Int64
}

// New builds an enabled injector. A zero TransientShare defaults to 1
// (all injected errors transient); set ErrorRate 0 if no errors are
// wanted.
func New(cfg Config) *Injector {
	if cfg.TransientShare == 0 {
		cfg.TransientShare = 1
	}
	inj := &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0)),
	}
	inj.enabled.Store(true)
	return inj
}

// Disable stops all injection; subsequent calls pass straight through.
// Chaos tests use this to drain a storm and verify steady state.
func (inj *Injector) Disable() { inj.enabled.Store(false) }

// Enable re-arms injection.
func (inj *Injector) Enable() { inj.enabled.Store(true) }

// Stats snapshots the injection counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Calls:        inj.calls.Load(),
		Transient:    inj.transient.Load(),
		Permanent:    inj.permanent.Load(),
		Spikes:       inj.spikes.Load(),
		Blowthroughs: inj.blowthroughs.Load(),
	}
}

// decision is one call's drawn fault schedule, sampled under the rng
// lock so the random sequence is consistent regardless of how long
// individual calls run.
type decision struct {
	spike   bool
	blow    bool
	errType Class
	injErr  bool
}

func (inj *Injector) draw() decision {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var d decision
	d.spike = inj.rng.Float64() < inj.cfg.LatencyRate
	d.blow = inj.rng.Float64() < inj.cfg.BlowthroughRate
	d.injErr = inj.rng.Float64() < inj.cfg.ErrorRate
	if inj.rng.Float64() < inj.cfg.TransientShare {
		d.errType = ClassTransient
	} else {
		d.errType = ClassPermanent
	}
	return d
}

// before runs the injected pre-call faults. It returns a non-nil
// error when the call must fail without reaching the wrapped seam.
func (inj *Injector) before(ctx context.Context) error {
	inj.calls.Add(1)
	if !inj.enabled.Load() {
		return nil
	}
	d := inj.draw()
	if d.spike && inj.cfg.Latency > 0 {
		inj.spikes.Add(1)
		t := time.NewTimer(inj.cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if d.blow {
		// A hung layer: ignore the work, hold the call until the
		// caller's deadline or cancellation fires.
		inj.blowthroughs.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	if d.injErr {
		if d.errType == ClassTransient {
			n := inj.transient.Add(1)
			return Transient(fmt.Errorf("injected fault #%d", n))
		}
		n := inj.permanent.Add(1)
		return Permanent(fmt.Errorf("injected fault #%d", n))
	}
	return nil
}

// Wrap interposes inj on any single-argument, single-result function
// seam — in this repo, the profile func signature
// func(ctx, core.Options) (*core.Report, error). Faults fire before
// the wrapped call; a fault-free call passes through untouched.
func Wrap[T, R any](inj *Injector, f func(context.Context, T) (R, error)) func(context.Context, T) (R, error) {
	return func(ctx context.Context, arg T) (R, error) {
		if err := inj.before(ctx); err != nil {
			var zero R
			return zero, err
		}
		return f(ctx, arg)
	}
}
