package core

import (
	"context"

	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/obs"
)

// MemoProfiler wraps a ProfileFunc so every request carries the given
// memo store (unless the request already brings its own). This is how a
// sweep driver, a CLI run, or a test attaches one shared store to many
// profiling calls without threading it by hand.
func MemoProfiler(st *memo.Store, next ProfileFunc) ProfileFunc {
	if next == nil {
		next = ProfileCtx
	}
	return func(ctx context.Context, opts Options) (*Report, error) {
		if opts.Memo == nil {
			opts.Memo = st
		}
		return next(ctx, opts)
	}
}

// memoPoint is the pipeline's per-run view of the memo store: the
// resolved configuration it keys on, prepared before the model is
// built so a plan hit can skip the build entirely. A nil *memoPoint is
// an unmemoized run, for which cached and record do nothing.
type memoPoint struct {
	st       *memo.Store
	binding  memo.Binding
	planKey  string
	unitHits int
}

// prepareMemoPoint decides whether this run is memoizable and, if so,
// derives the run's plan key. Only predicted-mode, constant-roofline
// runs are memoized: measured mode replays hardware counters and
// MeasuredRoofline re-runs the peak test, both of which must stay
// observable work.
func prepareMemoPoint(opts Options, plat *hardware.Platform, dt graph.DataType, batch int, backendKey string, mode Mode) *memoPoint {
	if opts.Memo == nil || mode != ModePredicted || opts.MeasuredRoofline {
		return nil
	}
	modelName := opts.Model
	source := "zoo:" + opts.Model
	if opts.Graph != nil {
		if modelName == "" {
			modelName = opts.Graph.Name
		}
		// An admitted graph carries its digest; a raw one is hashed.
		source = "graph:" + opts.Graph.Digest()
	}
	// The plan binding carries the *requested* data type; a quantized
	// graph resolves to int8 later, but quantized-ness is a function of
	// the model content, which source covers — the same (source,
	// binding) always resolves to the same effective type.
	b := memo.Binding{
		Backend:      backendKey,
		PlatformKey:  plat.Key,
		PlatformHash: plat.DescriptorHash(),
		DType:        dt,
		Batch:        batch,
		Mode:         string(mode),
		Seed:         opts.Seed,
		Clocks:       opts.Clocks,
	}
	return &memoPoint{st: opts.Memo, binding: b, planKey: memo.PlanKey(modelName, source, b)}
}

// cached returns the point's plan and its units when the store holds
// all of them. Any evicted unit misses the whole point (no partial
// reports): the run then rebuilds it and records a fresh plan.
func (mp *memoPoint) cached() (*memo.Plan, []memo.Unit) {
	if mp == nil {
		return nil, nil
	}
	plan, ok := mp.st.Plan(mp.planKey)
	if !ok {
		return nil, nil
	}
	units := make([]memo.Unit, len(plan.Layers))
	for i, pl := range plan.Layers {
		u, ok := mp.st.Unit(pl.Sig)
		if !ok {
			return nil, nil
		}
		units[i] = u
	}
	return plan, units
}

// unit resolves one layer's unit through the store under its
// signature, running compute only when no cached or in-flight unit has
// it. Units bind the effective data type (int8 for a quantized graph),
// not the requested one the plan key carries.
func (mp *memoPoint) unit(ctx context.Context, contentKey string, dt graph.DataType, compute func() (memo.Unit, error)) (memo.Signature, memo.Unit, error) {
	b := mp.binding
	b.DType = dt
	sig := memo.UnitSignature(contentKey, b)
	u, outcome, err := mp.st.GetOrCompute(ctx, sig, compute)
	if outcome != memo.OutcomeMiss {
		mp.unitHits++
	}
	return sig, u, err
}

// record caches the plan of a freshly resolved point for the next
// identical run. The store takes ownership of plan.
func (mp *memoPoint) record(pipe *obs.Span, plan *memo.Plan) {
	if mp == nil {
		return
	}
	mp.st.PutPlan(mp.planKey, plan)
	pipe.SetAttr("memo", "record")
	pipe.SetAttrInt("memo_unit_hits", int64(mp.unitHits))
}
