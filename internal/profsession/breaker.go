package profsession

import (
	"fmt"
	"sync"
	"time"

	"proof/internal/obs"
)

// BreakerConfig enables a circuit breaker per (zoo model, platform)
// key, with one key per platform shared by every inline graph: after
// Threshold consecutive execution failures for one key, further
// requests for that key fail fast with a *CircuitOpenError (no
// pipeline execution) until Cooldown has passed, then a single probe
// request is let through — success closes the circuit, failure
// re-opens it.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the
	// circuit. <= 0 disables the breaker entirely.
	Threshold int
	// Cooldown is how long an open circuit rejects before allowing a
	// half-open probe (0 selects DefaultBreakerCooldown).
	Cooldown time.Duration
}

// DefaultBreakerCooldown is the open-circuit cooldown used when
// BreakerConfig.Cooldown is zero.
const DefaultBreakerCooldown = 10 * time.Second

// CircuitOpenError is returned (wrapped in the profiling error chain)
// when the circuit for a request's key is open: the request failed
// fast without executing the pipeline. RetryAfter is the remaining
// cooldown — the natural Retry-After hint for an HTTP edge.
type CircuitOpenError struct {
	// Key is the breaker key ("<zoo key>|<platform>", or
	// "inline|<platform>" for an inline graph).
	Key string
	// RetryAfter is how long until the circuit will admit a probe.
	RetryAfter time.Duration
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("profsession: circuit open for %s (retry in %s)", e.Key, e.RetryAfter.Round(time.Millisecond))
}

// Breaker states, exported through the state gauge: 0 closed (normal),
// 1 half-open (probing), 2 open (rejecting).
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is one key's circuit.
type breaker struct {
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// breakerSet is the per-session collection of circuits. All methods
// are safe for concurrent use.
type breakerSet struct {
	cfg BreakerConfig
	now func() time.Time // seam for deterministic tests

	mu    sync.Mutex
	m     map[string]*breaker
	gauge *obs.GaugeVec // optional per-key state gauge

	opens, reopens, closes, fastFails int64
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	return &breakerSet{cfg: cfg, now: time.Now, m: make(map[string]*breaker)}
}

// setState transitions b and mirrors the new state into the gauge.
// bs.mu must be held.
func (bs *breakerSet) setState(key string, b *breaker, state int) {
	b.state = state
	if bs.gauge != nil {
		bs.gauge.With(key).Set(float64(state))
	}
}

// allow decides whether an execution for key may start. When the
// circuit is open it returns ok=false with the remaining cooldown;
// when half-open it admits exactly one probe at a time and rejects the
// rest for a full cooldown.
func (bs *breakerSet) allow(key string) (retryAfter time.Duration, ok bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b == nil {
		b = &breaker{}
		bs.m[key] = b
		bs.setState(key, b, breakerClosed)
	}
	switch b.state {
	case breakerClosed:
		return 0, true
	case breakerOpen:
		remaining := bs.cfg.Cooldown - bs.now().Sub(b.openedAt)
		if remaining > 0 {
			bs.fastFails++
			return remaining, false
		}
		// Cooldown over: move to half-open and admit this request as
		// the probe.
		bs.setState(key, b, breakerHalfOpen)
		b.probing = true
		return 0, true
	default: // half-open
		if b.probing {
			bs.fastFails++
			return bs.cfg.Cooldown, false
		}
		b.probing = true
		return 0, true
	}
}

// Execution verdicts fed back into the breaker. Abandoned means the
// caller's context ended before the execution could be judged
// (cancellation races a real failure); it clears a probe slot without
// moving the state in either direction.
const (
	verdictSuccess = iota
	verdictFailure
	verdictAbandoned
)

// record feeds one execution result for key back into its circuit.
func (bs *breakerSet) record(key string, verdict int) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b == nil {
		return
	}
	switch verdict {
	case verdictSuccess:
		if b.state != breakerClosed {
			bs.closes++
		}
		b.fails = 0
		b.probing = false
		bs.setState(key, b, breakerClosed)
	case verdictFailure:
		switch b.state {
		case breakerHalfOpen:
			// The probe failed: re-open for another cooldown.
			b.probing = false
			b.openedAt = bs.now()
			bs.reopens++
			bs.setState(key, b, breakerOpen)
		case breakerClosed:
			b.fails++
			if b.fails >= bs.cfg.Threshold {
				b.openedAt = bs.now()
				bs.opens++
				bs.setState(key, b, breakerOpen)
			}
		}
	default: // abandoned
		b.probing = false
	}
}

// snapshot returns the lifetime transition counters.
func (bs *breakerSet) snapshot() (opens, reopens, closes, fastFails int64) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.opens, bs.reopens, bs.closes, bs.fastFails
}
