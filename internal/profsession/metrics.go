package profsession

import (
	"errors"

	"proof/internal/obs"
)

// RegisterMetrics publishes a session's lifetime counters and cache
// state into reg under <prefix>_session_*, read live at scrape time so
// the session needs no push hooks. Call once per session/registry
// pair: registering the same names twice returns an error wrapping
// obs.ErrMetricConflict (a wiring bug — the second session's closures
// would otherwise be silently dropped).
func RegisterMetrics(reg *obs.Registry, prefix string, s *Session) error {
	if reg == nil || s == nil {
		return nil
	}
	p := prefix + "_session_"
	errs := []error{
		reg.CounterFunc(p+"retries_total",
			"Re-attempts of transiently failed pipeline executions.",
			func() float64 { return float64(s.retries.Load()) }),
		reg.CounterFunc(p+"retries_exhausted_total",
			"Executions that failed transiently on every configured attempt.",
			func() float64 { return float64(s.retriesExhausted.Load()) }),
	}
	if bs := s.breakers; bs != nil {
		bs.mu.Lock()
		bs.gauge = reg.GaugeVec(p+"breaker_state",
			"Circuit state per zoo-model|platform or inline|platform key: 0 closed, 1 half-open, 2 open.", "key")
		bs.mu.Unlock()
		errs = append(errs,
			reg.CounterFunc(p+"breaker_opens_total",
				"Circuits opened from the closed state.",
				func() float64 { o, _, _, _ := bs.snapshot(); return float64(o) }),
			reg.CounterFunc(p+"breaker_reopens_total",
				"Half-open probes that failed and re-opened the circuit.",
				func() float64 { _, r, _, _ := bs.snapshot(); return float64(r) }),
			reg.CounterFunc(p+"breaker_closes_total",
				"Circuits closed by a successful probe.",
				func() float64 { _, _, c, _ := bs.snapshot(); return float64(c) }),
			reg.CounterFunc(p+"breaker_fast_fails_total",
				"Requests rejected fast on an open or probing circuit.",
				func() float64 { _, _, _, ff := bs.snapshot(); return float64(ff) }),
		)
	}
	errs = append(errs,
		reg.CounterFunc(p+"hits_total",
			"Profiling requests served from the report store.",
			func() float64 { return float64(s.Stats().Hits) }),
		reg.CounterFunc(p+"misses_total",
			"Profiling requests that executed the pipeline.",
			func() float64 { return float64(s.Stats().Misses) }),
		reg.CounterFunc(p+"evictions_total",
			"Reports dropped by the LRU policy.",
			func() float64 { return float64(s.Stats().Evictions) }),
		reg.CounterFunc(p+"dedups_total",
			"Requests that attached to an identical in-flight execution.",
			func() float64 { return float64(s.Stats().Dedups) }),
		reg.GaugeFunc(p+"inflight_executions",
			"Pipeline executions running right now.",
			func() float64 { return float64(s.Stats().Inflight) }),
		reg.GaugeFunc(p+"cache_size",
			"Reports stored.",
			func() float64 { return float64(s.Stats().Size) }),
		reg.GaugeFunc(p+"cache_capacity",
			"Report store capacity, in reports.",
			func() float64 { return float64(s.Stats().Capacity) }),
		reg.GaugeFunc(p+"cache_hit_ratio",
			"Lifetime cache hit ratio: hits / (hits + misses + dedups).",
			func() float64 {
				st := s.Stats()
				total := st.Hits + st.Misses + st.Dedups
				if total == 0 {
					return 0
				}
				return float64(st.Hits) / float64(total)
			}),
	)
	return errors.Join(errs...)
}
