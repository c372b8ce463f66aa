package memo

import (
	"sync/atomic"

	"proof/internal/cache"
)

// StoreConfig bounds a Store.
type StoreConfig struct {
	// UnitCapacity bounds the layer units the stored reports hold
	// together (<=0 = DefaultUnitCapacity).
	UnitCapacity int
}

// DefaultUnitCapacity bounds a default store at 16,384 layer units:
// about 160 reports of 103 layers, or 330 of 50.
const DefaultUnitCapacity = 16384

// Store is the memo store: an LRU of encoded reports keyed by the
// request key (core.Resolve's), bounded by the layer units they hold. A
// report weighs its layer count (at least 1), and a report heavier than
// the whole capacity is not kept. Each value is a report's binary
// encoding (core.Report.AppendBinary), one pointer-free string that
// its readers decode into reports of their own. All methods are safe
// for concurrent use.
type Store struct {
	reports *cache.LRU[string, entry]
	// hits counts units served by report hits; misses counts units
	// profiled into stored reports.
	hits, misses atomic.Int64
}

// entry is one stored report and its layer count.
type entry struct {
	report string
	units  int
}

// NewStore creates a bounded store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.UnitCapacity <= 0 {
		cfg.UnitCapacity = DefaultUnitCapacity
	}
	return &Store{reports: cache.NewWeighted[string](cfg.UnitCapacity, func(e entry) int { return e.units })}
}

// Get returns the encoded report stored under key.
func (s *Store) Get(key string) (string, bool) {
	e, ok := s.reports.Get(key)
	if ok {
		s.hits.Add(int64(e.units))
	}
	return e.report, ok
}

// Put stores the encoded report of one freshly profiled point, of the
// given layer count, evicting the least recently used reports until
// the units held fit the capacity.
func (s *Store) Put(key, report string, layers int) {
	s.misses.Add(int64(layers))
	s.reports.Put(key, entry{report, layers})
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Units is the number of layer units the stored reports hold;
	// Reports is the number of stored reports.
	Units   int `json:"units"`
	Reports int `json:"reports"`
	// Hits counts units served by report hits; Misses counts units
	// profiled into stored reports.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts reports dropped by the unit bound.
	Evictions int64 `json:"evictions"`
	// PlanHits/PlanMisses count report lookups: a profiling point served
	// whole, or not found.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
}

// HitRatio returns hits/(hits+misses) over units, or 0.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	r := s.reports.Stats()
	return Stats{
		Units:      r.Weight,
		Reports:    r.Len,
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Evictions:  r.Evictions,
		PlanHits:   r.Hits,
		PlanMisses: r.Misses,
	}
}
