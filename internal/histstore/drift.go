package histstore

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"proof/internal/obs"
)

// Drift detection compares, per series (one model at one resolved
// configuration, see Meta.Series), the newest revision's stored
// reports against a baseline revision's. A revision is a (git-rev,
// descriptor-hash) pair: either the code or the hardware descriptor
// changing starts a new one. Three signals flag drift:
//
//   - the end-to-end roofline verdict flipped (compute <-> memory <->
//     ridge) — the headline regression a roofline profiler exists to
//     catch;
//   - the attainable-FLOPS ceiling at the model's operating point moved
//     by more than a relative threshold (the hardware model changed
//     under the model);
//   - the latency distribution shifted: p50 or p99 of the revision's
//     latency digest moved beyond the threshold.

// DriftOptions tunes detection; the zero value applies the defaults.
type DriftOptions struct {
	// RelThreshold is the relative change in attainable FLOPS or a
	// latency percentile that counts as drift (0 = 0.05, i.e. 5%).
	RelThreshold float64
	// BaselineGitRev / BaselineDescHash pin the baseline revision.
	// Either may be a prefix; empty means "the earliest revision with
	// records for the series".
	BaselineGitRev   string
	BaselineDescHash string
}

func (o DriftOptions) withDefaults() DriftOptions {
	if o.RelThreshold <= 0 {
		o.RelThreshold = 0.05
	}
	return o
}

// RevisionStats summarizes one revision's records for one series.
type RevisionStats struct {
	GitRev         string    `json:"git_rev,omitempty"`
	DescriptorHash string    `json:"descriptor_hash,omitempty"`
	Records        int       `json:"records"`
	First          time.Time `json:"first"`
	Last           time.Time `json:"last"`
	// Bound is the dominant end-to-end verdict across the revision's
	// records (ties break toward the most recent record's verdict).
	Bound string `json:"bound,omitempty"`
	// AttainableFLOPS / AttainedFLOPS are means across records.
	AttainableFLOPS float64 `json:"attainable_flops,omitempty"`
	AttainedFLOPS   float64 `json:"attained_flops,omitempty"`
	// LatencyP50 / LatencyP99 come from the revision's latency digest.
	LatencyP50 time.Duration `json:"latency_p50_ns,omitempty"`
	LatencyP99 time.Duration `json:"latency_p99_ns,omitempty"`

	digest *obs.Digest
}

func (r RevisionStats) rev() string {
	m := Meta{GitRev: r.GitRev, DescriptorHash: r.DescriptorHash}
	return m.Revision()
}

// KeyDrift is the verdict for one series.
type KeyDrift struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`
	// Series names the series compared; Backend, Batch, DType and Mode
	// echo its configuration.
	Series  string `json:"series"`
	Backend string `json:"backend,omitempty"`
	Batch   int    `json:"batch,omitempty"`
	DType   string `json:"dtype,omitempty"`
	Mode    string `json:"mode,omitempty"`
	// Baseline and Latest are the two revisions compared. Latest is
	// the revision holding the series' newest record.
	Baseline RevisionStats `json:"baseline"`
	Latest   RevisionStats `json:"latest"`
	// Drifted is the headline bit; Reasons says why, one line per
	// tripped signal.
	Drifted bool     `json:"drifted"`
	Reasons []string `json:"reasons,omitempty"`
	// VerdictFlipped singles out the compute<->memory signal.
	VerdictFlipped bool `json:"verdict_flipped,omitempty"`
	// AttainableDelta and latency deltas are signed relative changes
	// (latest vs baseline), reported even below threshold.
	AttainableDelta float64 `json:"attainable_delta,omitempty"`
	LatencyP50Delta float64 `json:"latency_p50_delta,omitempty"`
	LatencyP99Delta float64 `json:"latency_p99_delta,omitempty"`
	// SingleRevision marks series with no second revision to compare —
	// never drifted, listed so the caller can tell "stable" from
	// "uncomparable".
	SingleRevision bool `json:"single_revision,omitempty"`
}

// DriftReport is the store-wide drift summary.
type DriftReport struct {
	Keys        []KeyDrift `json:"keys"`
	DriftedKeys int        `json:"drifted_keys"`
	// Threshold echoes the relative threshold applied.
	Threshold float64 `json:"threshold"`
	// LatencyP50 / LatencyP99 are store-wide percentiles across every
	// record examined (all series' digests merged) — the fleet context
	// a single series' shift is judged against.
	LatencyP50 time.Duration `json:"latency_p50_ns,omitempty"`
	LatencyP99 time.Duration `json:"latency_p99_ns,omitempty"`
}

// revKey groups metas into revisions.
type revKey struct{ gitRev, descHash string }

// ComputeDrift runs drift detection over a set of history metas
// (typically Store.Metas of a query), one KeyDrift per series, ordered
// by model, platform and series. Metas lacking a model or platform are
// ignored.
func ComputeDrift(metas []Meta, opts DriftOptions) DriftReport {
	opts = opts.withDefaults()
	bySeries := map[string][]Meta{}
	var order []string
	for _, m := range metas {
		if m.Model == "" || m.Platform == "" {
			continue
		}
		s := m.series()
		if _, ok := bySeries[s]; !ok {
			order = append(order, s)
		}
		bySeries[s] = append(bySeries[s], m)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := bySeries[order[i]][0], bySeries[order[j]][0]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Platform != b.Platform {
			return a.Platform < b.Platform
		}
		return order[i] < order[j]
	})

	rep := DriftReport{Threshold: opts.RelThreshold}
	all := obs.NewDigest()
	for _, s := range order {
		kd := compareSeriesRevisions(s, bySeries[s], opts)
		if kd.Baseline.digest != nil {
			all.Merge(kd.Baseline.digest)
		}
		if kd.Latest.digest != nil {
			all.Merge(kd.Latest.digest)
		}
		if kd.Drifted {
			rep.DriftedKeys++
		}
		rep.Keys = append(rep.Keys, kd)
	}
	if all.Count() > 0 {
		rep.LatencyP50 = all.Quantile(0.5)
		rep.LatencyP99 = all.Quantile(0.99)
	}
	return rep
}

// compareSeriesRevisions groups one series' metas by revision and
// compares baseline vs latest.
func compareSeriesRevisions(series string, metas []Meta, opts DriftOptions) KeyDrift {
	first := metas[0]
	kd := KeyDrift{Model: first.Model, Platform: first.Platform, Series: series,
		Backend: first.Backend, Batch: first.Batch, DType: first.DType, Mode: first.Mode}
	groups := map[revKey][]Meta{}
	for _, m := range metas {
		rk := revKey{m.GitRev, m.DescriptorHash}
		groups[rk] = append(groups[rk], m)
	}
	type grp struct {
		key         revKey
		first, last int64
		metas       []Meta
	}
	var gs []grp
	for rk, ms := range groups {
		g := grp{key: rk, metas: ms, first: ms[0].TimestampNS, last: ms[0].TimestampNS}
		for _, m := range ms[1:] {
			if m.TimestampNS < g.first {
				g.first = m.TimestampNS
			}
			if m.TimestampNS > g.last {
				g.last = m.TimestampNS
			}
		}
		gs = append(gs, g)
	}
	// Oldest revision first (by first record, key as tiebreaker for
	// determinism).
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].first != gs[j].first {
			return gs[i].first < gs[j].first
		}
		if gs[i].key.gitRev != gs[j].key.gitRev {
			return gs[i].key.gitRev < gs[j].key.gitRev
		}
		return gs[i].key.descHash < gs[j].key.descHash
	})

	// Latest = the revision holding the series' newest record.
	latest := 0
	for i := range gs {
		if gs[i].last >= gs[latest].last {
			latest = i
		}
	}
	// Baseline = the pinned revision if one matches, else the oldest
	// revision other than latest (or latest itself when it is alone).
	baseline := -1
	if opts.BaselineGitRev != "" || opts.BaselineDescHash != "" {
		for i := range gs {
			if opts.BaselineGitRev != "" && !strings.HasPrefix(gs[i].key.gitRev, opts.BaselineGitRev) {
				continue
			}
			if opts.BaselineDescHash != "" && !strings.HasPrefix(gs[i].key.descHash, opts.BaselineDescHash) {
				continue
			}
			baseline = i
			break
		}
	}
	if baseline == -1 {
		for i := range gs {
			if i != latest {
				baseline = i
				break
			}
		}
	}
	if baseline == -1 {
		baseline = latest
	}

	kd.Latest = summarizeRevision(gs[latest].key, gs[latest].metas)
	kd.Baseline = summarizeRevision(gs[baseline].key, gs[baseline].metas)
	if baseline == latest {
		kd.SingleRevision = true
		return kd
	}

	reason := func(format string, args ...any) {
		kd.Drifted = true
		kd.Reasons = append(kd.Reasons, fmt.Sprintf(format, args...))
	}
	if kd.Baseline.Bound != "" && kd.Latest.Bound != "" && kd.Baseline.Bound != kd.Latest.Bound {
		kd.VerdictFlipped = true
		reason("roofline verdict flipped %s -> %s (baseline %s, latest %s)",
			kd.Baseline.Bound, kd.Latest.Bound, kd.Baseline.rev(), kd.Latest.rev())
	}
	kd.AttainableDelta = relDelta(kd.Baseline.AttainableFLOPS, kd.Latest.AttainableFLOPS)
	if math.Abs(kd.AttainableDelta) > opts.RelThreshold {
		reason("attainable FLOPS moved %+.1f%% (%.3g -> %.3g)",
			100*kd.AttainableDelta, kd.Baseline.AttainableFLOPS, kd.Latest.AttainableFLOPS)
	}
	kd.LatencyP50Delta = relDelta(float64(kd.Baseline.LatencyP50), float64(kd.Latest.LatencyP50))
	kd.LatencyP99Delta = relDelta(float64(kd.Baseline.LatencyP99), float64(kd.Latest.LatencyP99))
	if math.Abs(kd.LatencyP50Delta) > opts.RelThreshold {
		reason("latency p50 shifted %+.1f%% (%s -> %s)",
			100*kd.LatencyP50Delta, kd.Baseline.LatencyP50, kd.Latest.LatencyP50)
	}
	if math.Abs(kd.LatencyP99Delta) > opts.RelThreshold {
		reason("latency p99 shifted %+.1f%% (%s -> %s)",
			100*kd.LatencyP99Delta, kd.Baseline.LatencyP99, kd.Latest.LatencyP99)
	}
	return kd
}

// summarizeRevision folds one revision's metas into stats, feeding
// latencies through a digest so percentile shifts are judged on the
// same machinery the serving stack reports with.
func summarizeRevision(rk revKey, metas []Meta) RevisionStats {
	rs := RevisionStats{
		GitRev:         rk.gitRev,
		DescriptorHash: rk.descHash,
		Records:        len(metas),
		digest:         obs.NewDigest(),
	}
	var attainable, attained float64
	boundVotes := map[string]int{}
	var newest Meta
	for i, m := range metas {
		if i == 0 || m.TimestampNS < rs.First.UnixNano() {
			rs.First = m.Time()
		}
		if i == 0 || m.TimestampNS > rs.Last.UnixNano() {
			rs.Last = m.Time()
			newest = m
		}
		attainable += m.AttainableFLOPS
		attained += m.AttainedFLOPS
		if m.Bound != "" {
			boundVotes[m.Bound]++
		}
		if m.LatencyNS > 0 {
			rs.digest.Observe(time.Duration(m.LatencyNS))
		}
	}
	n := float64(len(metas))
	rs.AttainableFLOPS = attainable / n
	rs.AttainedFLOPS = attained / n
	best := 0
	for b, v := range boundVotes {
		if v > best || (v == best && b == newest.Bound) {
			best, rs.Bound = v, b
		}
	}
	if rs.digest.Count() > 0 {
		rs.LatencyP50 = rs.digest.Quantile(0.5)
		rs.LatencyP99 = rs.digest.Quantile(0.99)
	}
	return rs
}

// relDelta is (latest-base)/base, 0 when the baseline is zero (no
// meaningful relative change exists).
func relDelta(base, latest float64) float64 {
	if base == 0 {
		return 0
	}
	return (latest - base) / base
}
