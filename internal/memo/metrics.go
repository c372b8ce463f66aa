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
			"Layer units served by stored reports.",
			func() float64 { return float64(s.Stats().Hits) }),
		reg.CounterFunc(p+"misses_total",
			"Layer units profiled into stored reports.",
			func() float64 { return float64(s.Stats().Misses) }),
		reg.CounterFunc(p+"evictions_total",
			"Stored reports dropped by the unit bound.",
			func() float64 { return float64(s.Stats().Evictions) }),
		reg.CounterFunc(p+"plan_hits_total",
			"Profiling points served whole from a stored report.",
			func() float64 { return float64(s.Stats().PlanHits) }),
		reg.CounterFunc(p+"plan_misses_total",
			"Profiling points looked up and not found.",
			func() float64 { return float64(s.Stats().PlanMisses) }),
		reg.GaugeFunc(p+"units",
			"Layer units held across the stored reports.",
			func() float64 { return float64(s.Stats().Units) }),
		reg.GaugeFunc(p+"reports",
			"Reports currently stored.",
			func() float64 { return float64(s.Stats().Reports) }),
		reg.GaugeFunc(p+"hit_ratio",
			"Lifetime unit hit ratio: hits / (hits + misses).",
			func() float64 { return s.Stats().HitRatio() }),
	}
	return errors.Join(errs...)
}
