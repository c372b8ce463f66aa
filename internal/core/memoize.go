package core

import (
	"context"

	"proof/internal/graph"
	"proof/internal/memo"
	"proof/internal/obs"
)

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

// newMemoPoint returns the run's view of its memo store, keyed by the
// request's resolved key, or nil for an unmemoized run. Only
// predicted-mode, constant-roofline runs are memoized: measured mode
// replays hardware counters and MeasuredRoofline re-runs the peak
// test, both of which must stay observable work.
func newMemoPoint(r Resolved) *memoPoint {
	if r.Memo == nil || r.Mode != ModePredicted || r.MeasuredRoofline {
		return nil
	}
	return &memoPoint{st: r.Memo, binding: r.Binding, planKey: r.Key}
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
