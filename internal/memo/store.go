package memo

import (
	"container/list"
	"context"
	"sync"
	"time"

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
type Outcome string

const (
	// OutcomeHit served a cached unit.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss computed and cached a new unit.
	OutcomeMiss Outcome = "miss"
	// OutcomeDedup waited for a concurrent computation of the same
	// signature (singleflight).
	OutcomeDedup Outcome = "dedup"
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

// Store is the layer-unit memo store: an LRU of Units keyed by
// Signature, an LRU of Plans keyed by plan key, and singleflight dedup
// on concurrent unit misses. All methods are safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	unitCap   int
	planCap   int
	units     map[Signature]*list.Element // of *unitEntry
	unitOrder *list.List                  // front = most recent
	plans     map[string]*list.Element    // of *planEntry
	planOrder *list.List
	inflight  map[Signature]*unitCall

	stats struct {
		hits, misses, dedups int64
		evictions            int64
		planHits, planMisses int64
		planEvictions        int64
		failures             int64 // unit computations that errored (never cached)
	}
}

type unitEntry struct {
	sig  Signature
	unit Unit
}

type planEntry struct {
	key  string
	plan *Plan
}

type unitCall struct {
	done chan struct{}
	unit Unit
	err  error
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
		unitCap:   cfg.UnitCapacity,
		planCap:   cfg.PlanCapacity,
		units:     make(map[Signature]*list.Element),
		unitOrder: list.New(),
		plans:     make(map[string]*list.Element),
		planOrder: list.New(),
		inflight:  make(map[Signature]*unitCall),
	}
}

// Unit returns the cached unit for sig, if present. Used on a plan hit;
// a miss there is not counted (the caller falls back to the full
// pipeline, whose GetOrCompute accounts for it).
func (s *Store) Unit(sig Signature) (Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.units[sig]
	if !ok {
		return Unit{}, false
	}
	s.unitOrder.MoveToFront(el)
	s.stats.hits++
	return el.Value.(*unitEntry).unit, true
}

// GetOrCompute returns the cached unit for sig or computes it exactly
// once across concurrent callers: the first miss becomes the leader and
// runs compute; callers arriving while it runs wait and share the
// result (OutcomeDedup). Failed computations are never cached — the
// leader's error propagates to its waiters, and the next caller retries
// fresh. A waiter whose ctx ends returns ctx.Err() without disturbing
// the computation.
func (s *Store) GetOrCompute(ctx context.Context, sig Signature, compute func() (Unit, error)) (Unit, Outcome, error) {
	s.mu.Lock()
	if el, ok := s.units[sig]; ok {
		s.unitOrder.MoveToFront(el)
		s.stats.hits++
		u := el.Value.(*unitEntry).unit
		s.mu.Unlock()
		return u, OutcomeHit, nil
	}
	if c, ok := s.inflight[sig]; ok {
		s.stats.dedups++
		s.mu.Unlock()
		select {
		case <-c.done:
			return c.unit, OutcomeDedup, c.err
		case <-ctx.Done():
			return Unit{}, OutcomeDedup, ctx.Err()
		}
	}
	c := &unitCall{done: make(chan struct{})}
	s.inflight[sig] = c
	s.stats.misses++
	s.mu.Unlock()

	c.unit, c.err = compute()

	s.mu.Lock()
	delete(s.inflight, sig)
	if c.err == nil {
		s.insertUnitLocked(sig, c.unit)
	} else {
		s.stats.failures++
	}
	s.mu.Unlock()
	close(c.done)
	return c.unit, OutcomeMiss, c.err
}

func (s *Store) insertUnitLocked(sig Signature, u Unit) {
	if el, ok := s.units[sig]; ok {
		el.Value.(*unitEntry).unit = u
		s.unitOrder.MoveToFront(el)
		return
	}
	s.units[sig] = s.unitOrder.PushFront(&unitEntry{sig: sig, unit: u})
	for len(s.units) > s.unitCap {
		last := s.unitOrder.Back()
		if last == nil {
			break
		}
		s.unitOrder.Remove(last)
		delete(s.units, last.Value.(*unitEntry).sig)
		s.stats.evictions++
	}
}

// Plan returns the cached assembly plan for key. The returned plan is
// shared and must not be modified.
func (s *Store) Plan(key string) (*Plan, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.plans[key]
	if !ok {
		s.stats.planMisses++
		return nil, false
	}
	s.planOrder.MoveToFront(el)
	s.stats.planHits++
	return el.Value.(*planEntry).plan, true
}

// PutPlan caches the assembly plan of one profiling point. The store
// takes ownership of p, which must not be modified afterwards.
func (s *Store) PutPlan(key string, p *Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.plans[key]; ok {
		el.Value.(*planEntry).plan = p
		s.planOrder.MoveToFront(el)
		return
	}
	s.plans[key] = s.planOrder.PushFront(&planEntry{key: key, plan: p})
	for len(s.plans) > s.planCap {
		last := s.planOrder.Back()
		if last == nil {
			break
		}
		s.planOrder.Remove(last)
		delete(s.plans, last.Value.(*planEntry).key)
		s.stats.planEvictions++
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Units:         len(s.units),
		Plans:         len(s.plans),
		Hits:          s.stats.hits,
		Misses:        s.stats.misses,
		Dedups:        s.stats.dedups,
		Failures:      s.stats.failures,
		Evictions:     s.stats.evictions,
		PlanHits:      s.stats.planHits,
		PlanMisses:    s.stats.planMisses,
		PlanEvictions: s.stats.planEvictions,
	}
}
