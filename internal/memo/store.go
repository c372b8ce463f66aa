package memo

import (
	"slices"
	"sync/atomic"
	"time"

	"proof/internal/cache"
	"proof/internal/graph"
)

// Unit is the result of profiling one backend layer: everything the
// report needs per layer beyond the layer's names. Every profiling run
// resolves one Unit per backend layer, with or without a store. Values
// only — no pointers — so a cached Unit can be handed to any number of
// concurrent readers.
type Unit struct {
	// Latency is the simulated wall time; ComputeTime and MemoryTime
	// are its roofline components (inputs to the report's aggregate
	// utilization).
	Latency     time.Duration
	ComputeTime time.Duration
	MemoryTime  time.Duration
	// ExecutionBound is the dominating term: "compute", "memory" or
	// "overhead".
	ExecutionBound string
	// FLOP and Bytes are the per-layer metrics (predicted, or counter-
	// measured in measured mode, which is never memoized); together
	// with Latency they determine the roofline point (AI, attained
	// FLOPS, ridge-side bound), which report assembly computes.
	FLOP  int64
	Bytes int64
	// Category is the chart-coloring tag of the mapped layer.
	Category string
}

// PlanKernel records one lowered kernel of a planned layer.
type PlanKernel struct {
	Name  string
	Share float64
}

// PlanLayer is one backend layer of a plan: its identity (names are
// model-specific) and its profiled unit.
type PlanLayer struct {
	Name          string
	IsReformat    bool
	OriginalNodes []string
	OpTypes       []string
	Kernels       []PlanKernel
	Unit          Unit
}

// Plan is one whole profiling point: what the run found out about the
// model beyond its resolved configuration, plus the ordered layers with
// their units. A plan is stored under its configuration's key, so the
// configuration itself is not kept. Every report is assembled from a
// plan; a cached plan lets a repeated point skip model build, backend
// build, profiling and layer mapping entirely. A report takes over the
// lists of the plan it is assembled from, so a stored plan is never
// assembled itself: the pipeline stores one Clone and assembles from
// another. Plans are immutable after PutPlan.
type Plan struct {
	// EffectiveDType is the data type the model runs at (quantized
	// graphs run int8 regardless of the requested type); assembly
	// rebuilds the roofline ceilings from it.
	EffectiveDType graph.DataType
	NodeCount      int
	ParamsM        float64
	Layers         []PlanLayer
}

// Clone returns a deep copy of p that shares no slice with it.
func (p *Plan) Clone() *Plan {
	c := *p
	c.Layers = slices.Clone(p.Layers)
	for i := range c.Layers {
		l := &c.Layers[i]
		l.OriginalNodes = slices.Clone(l.OriginalNodes)
		l.OpTypes = slices.Clone(l.OpTypes)
		l.Kernels = slices.Clone(l.Kernels)
	}
	return &c
}

// StoreConfig bounds a Store.
type StoreConfig struct {
	// UnitCapacity bounds the layer units the cached plans hold
	// together (<=0 = DefaultUnitCapacity).
	UnitCapacity int
}

// DefaultUnitCapacity bounds a default store at 16,384 layer units:
// about 160 plans of 103 layers, or 330 of 50.
const DefaultUnitCapacity = 16384

// Store is the memo store: an LRU of plans keyed by plan key, bounded
// by the layer units they hold. A plan weighs its layer count (at
// least 1), and a plan heavier than the whole capacity is not kept.
// All methods are safe for concurrent use.
type Store struct {
	plans *cache.LRU[string, *Plan]
	// hits counts units served by plan hits; misses counts units
	// profiled into recorded plans.
	hits, misses atomic.Int64
}

// NewStore creates a bounded store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.UnitCapacity <= 0 {
		cfg.UnitCapacity = DefaultUnitCapacity
	}
	return &Store{plans: cache.NewWeighted[string](cfg.UnitCapacity, func(p *Plan) int { return len(p.Layers) })}
}

// Plan returns the cached plan for key. The returned plan is shared and
// must not be modified.
func (s *Store) Plan(key string) (*Plan, bool) {
	p, ok := s.plans.Get(key)
	if ok {
		s.hits.Add(int64(len(p.Layers)))
	}
	return p, ok
}

// PutPlan caches the plan of one freshly profiled point, evicting the
// least recently used plans until the units held fit the capacity. The
// store takes ownership of p, which must not be modified afterwards.
func (s *Store) PutPlan(key string, p *Plan) {
	s.misses.Add(int64(len(p.Layers)))
	s.plans.Put(key, p)
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Units is the number of layer units the cached plans hold; Plans
	// is the number of cached plans.
	Units int `json:"units"`
	Plans int `json:"plans"`
	// Hits counts units served by plan hits; Misses counts units
	// profiled into recorded plans.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts plans dropped by the unit bound.
	Evictions int64 `json:"evictions"`
	// PlanHits/PlanMisses count plan lookups.
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
	p := s.plans.Stats()
	return Stats{
		Units:      p.Weight,
		Plans:      p.Len,
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Evictions:  p.Evictions,
		PlanHits:   p.Hits,
		PlanMisses: p.Misses,
	}
}
