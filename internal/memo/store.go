package memo

import (
	"context"
	"time"

	"proof/internal/cache"
	"proof/internal/graph"
)

// Unit is the result of profiling one layer unit: everything the
// report needs per layer that cannot be recomputed from the signature
// alone. Every profiling run resolves one Unit per backend layer, with
// or without a store. Values only — no pointers — so a cached Unit can
// be handed to any number of concurrent readers.
type Unit struct {
	// Latency is the simulated wall time; ComputeTime and MemoryTime
	// are its roofline components (inputs to sim.Utilization).
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

// PlanLayer is the identity metadata of one backend layer in a plan:
// everything a report carries that is not a function of the unit
// signature (names are model-specific; units are name-free).
type PlanLayer struct {
	Name          string
	IsReformat    bool
	OriginalNodes []string
	OpTypes       []string
	Kernels       []PlanKernel
	// Sig keys the layer's unit in the unit store.
	Sig Signature
}

// Plan is the assembly skeleton of one whole profiling point: the
// resolved configuration echo plus the ordered layer identities. Every
// report is assembled from a plan and its units; a cached plan lets a
// repeated point skip model build, backend build, profiling and layer
// mapping entirely. Plans are immutable after PutPlan — assembly copies
// every slice it exposes.
type Plan struct {
	Model    string
	Platform string
	Backend  string
	DType    string
	// EffectiveDType is the resolved inference data type as a typed
	// value (quantized graphs run int8 regardless of the requested
	// type); assembly rebuilds the roofline ceilings from it.
	EffectiveDType graph.DataType
	Batch          int
	NodeCount      int
	ParamsM        float64
	Layers         []PlanLayer
}

// Outcome classifies one unit lookup.
type Outcome = cache.Outcome

const (
	// OutcomeHit served a cached unit.
	OutcomeHit = cache.Hit
	// OutcomeMiss computed and cached a new unit.
	OutcomeMiss = cache.Miss
	// OutcomeDedup waited for a concurrent computation of the same
	// signature (singleflight).
	OutcomeDedup = cache.Dedup
)

// StoreConfig bounds a Store.
type StoreConfig struct {
	// UnitCapacity bounds the unit LRU (<=0 = DefaultUnitCapacity).
	UnitCapacity int
	// PlanCapacity bounds the plan LRU (<=0 = DefaultPlanCapacity).
	PlanCapacity int
}

// Default capacities: a full 23-model × 7-platform × batch-grid sweep
// holds well under 16k unique units (models share most of them — that
// is the point), and one plan per sweep point.
const (
	DefaultUnitCapacity = 16384
	DefaultPlanCapacity = 1024
)

// Store is the layer-unit memo store: a cache of Units keyed by
// Signature, whose concurrent misses of one signature compute once,
// and a cache of Plans keyed by plan key. All methods are safe for
// concurrent use.
type Store struct {
	units *cache.LRU[Signature, Unit]
	plans *cache.LRU[string, *Plan]
}

// NewStore creates a bounded store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.UnitCapacity <= 0 {
		cfg.UnitCapacity = DefaultUnitCapacity
	}
	if cfg.PlanCapacity <= 0 {
		cfg.PlanCapacity = DefaultPlanCapacity
	}
	return &Store{
		units: cache.New[Signature, Unit](cfg.UnitCapacity),
		plans: cache.New[string, *Plan](cfg.PlanCapacity),
	}
}

// Unit returns the cached unit for sig, if present. It is used on a
// plan hit and counts a hit or a miss like every other unit lookup; a
// miss there sends the caller down the full pipeline, whose
// GetOrCompute counts the unit's lookup again.
func (s *Store) Unit(sig Signature) (Unit, bool) {
	return s.units.Get(sig)
}

// GetOrCompute returns the cached unit for sig or computes it exactly
// once across concurrent callers: the first miss becomes the leader and
// runs compute; callers arriving while it runs wait and share the
// result (OutcomeDedup). Failed computations are never cached — the
// leader's error propagates to its waiters, and the next caller retries
// fresh. A waiter whose ctx ends returns ctx.Err() without disturbing
// the computation.
func (s *Store) GetOrCompute(ctx context.Context, sig Signature, compute func() (Unit, error)) (Unit, Outcome, error) {
	return s.units.Do(ctx, sig, compute)
}

// Plan returns the cached assembly plan for key. The returned plan is
// shared and must not be modified.
func (s *Store) Plan(key string) (*Plan, bool) {
	return s.plans.Get(key)
}

// PutPlan caches the assembly plan of one profiling point. The store
// takes ownership of p, which must not be modified afterwards.
func (s *Store) PutPlan(key string, p *Plan) {
	s.plans.Put(key, p)
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Units and Plans are current entry counts.
	Units int `json:"units"`
	Plans int `json:"plans"`
	// Hits/Misses/Dedups count unit lookups; Failures counts unit
	// computations that errored (and were not cached).
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Dedups   int64 `json:"dedups"`
	Failures int64 `json:"failures"`
	// Evictions counts capacity evictions.
	Evictions int64 `json:"evictions"`
	// PlanHits/PlanMisses/PlanEvictions count plan lookups.
	PlanHits      int64 `json:"plan_hits"`
	PlanMisses    int64 `json:"plan_misses"`
	PlanEvictions int64 `json:"plan_evictions"`
}

// HitRatio returns hits/(hits+misses) over unit lookups, or 0.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	u, p := s.units.Stats(), s.plans.Stats()
	return Stats{
		Units:         u.Len,
		Plans:         p.Len,
		Hits:          u.Hits,
		Misses:        u.Misses,
		Dedups:        u.Dedups,
		Failures:      u.Failures,
		Evictions:     u.Evictions,
		PlanHits:      p.Hits,
		PlanMisses:    p.Misses,
		PlanEvictions: p.Evictions,
	}
}
