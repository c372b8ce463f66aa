package memo

import (
	"errors"

	"proof/internal/obs"
)

// RegisterMetrics publishes a store's counters into reg under
// <prefix>_memo_*, read live at scrape time. Call once per
// store/registry pair; a second registration of the same names returns
// an error wrapping obs.ErrMetricConflict.
func RegisterMetrics(reg *obs.Registry, prefix string, s *Store) error {
	if reg == nil || s == nil {
		return nil
	}
	p := prefix + "_memo_"
	errs := []error{
		reg.CounterFunc(p+"hits_total",
			"Layer units served by plan hits.",
			func() float64 { return float64(s.Stats().Hits) }),
		reg.CounterFunc(p+"misses_total",
			"Layer units profiled into recorded plans.",
			func() float64 { return float64(s.Stats().Misses) }),
		reg.CounterFunc(p+"evictions_total",
			"Assembly plans dropped by the unit bound.",
			func() float64 { return float64(s.Stats().Evictions) }),
		reg.CounterFunc(p+"plan_hits_total",
			"Profiling points assembled entirely from a cached plan.",
			func() float64 { return float64(s.Stats().PlanHits) }),
		reg.CounterFunc(p+"plan_misses_total",
			"Profiling points that ran the pipeline and recorded a plan.",
			func() float64 { return float64(s.Stats().PlanMisses) }),
		reg.GaugeFunc(p+"units",
			"Layer units held across the memoized plans.",
			func() float64 { return float64(s.Stats().Units) }),
		reg.GaugeFunc(p+"plans",
			"Assembly plans currently memoized.",
			func() float64 { return float64(s.Stats().Plans) }),
		reg.GaugeFunc(p+"hit_ratio",
			"Lifetime unit hit ratio: hits / (hits + misses).",
			func() float64 { return s.Stats().HitRatio() }),
	}
	return errors.Join(errs...)
}
