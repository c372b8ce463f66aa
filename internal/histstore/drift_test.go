package histstore

import (
	"strings"
	"testing"
	"time"
)

// driftMeta builds one history meta for drift tests.
func driftMeta(model, platform, rev, desc, bound string, attainable float64, latency time.Duration, i int) Meta {
	return Meta{
		Model:           model,
		Platform:        platform,
		GitRev:          rev,
		DescriptorHash:  desc,
		Bound:           bound,
		AttainableFLOPS: attainable,
		AttainedFLOPS:   attainable * 0.7,
		LatencyNS:       int64(latency),
		TimestampNS:     tsBase + int64(i)*int64(time.Minute),
	}
}

// TestDriftVerdictFlip is the issue's drift scenario: two descriptor
// revisions of one platform where the verdict flips compute -> memory
// must be flagged, while an unchanged (model, platform) pair reports
// no drift.
func TestDriftVerdictFlip(t *testing.T) {
	var metas []Meta
	// resnet/a100: rev1 compute-bound, rev2 (new descriptor) memory-bound.
	for i := 0; i < 5; i++ {
		metas = append(metas, driftMeta("resnet-50", "a100", "rev1", "descA", "compute", 1e14, 3*time.Millisecond, i))
	}
	for i := 10; i < 15; i++ {
		metas = append(metas, driftMeta("resnet-50", "a100", "rev2", "descB", "memory", 1e14, 3*time.Millisecond, i))
	}
	// bert/h100: two revisions, nothing changed.
	for i := 0; i < 5; i++ {
		metas = append(metas, driftMeta("bert-base", "h100", "rev1", "descC", "compute", 2e14, 5*time.Millisecond, i))
	}
	for i := 10; i < 15; i++ {
		metas = append(metas, driftMeta("bert-base", "h100", "rev2", "descC", "compute", 2e14, 5*time.Millisecond, i))
	}

	rep := ComputeDrift(metas, DriftOptions{})
	if len(rep.Keys) != 2 {
		t.Fatalf("Keys = %d, want 2", len(rep.Keys))
	}
	if rep.DriftedKeys != 1 {
		t.Fatalf("DriftedKeys = %d, want 1", rep.DriftedKeys)
	}
	byKey := map[string]KeyDrift{}
	for _, k := range rep.Keys {
		byKey[k.Model+"/"+k.Platform] = k
	}
	flip := byKey["resnet-50/a100"]
	if !flip.Drifted || !flip.VerdictFlipped {
		t.Fatalf("resnet-50/a100 = %+v, want verdict-flip drift", flip)
	}
	if flip.Baseline.Bound != "compute" || flip.Latest.Bound != "memory" {
		t.Errorf("flip bounds = %s -> %s, want compute -> memory", flip.Baseline.Bound, flip.Latest.Bound)
	}
	if len(flip.Reasons) == 0 || !strings.Contains(flip.Reasons[0], "flipped") {
		t.Errorf("Reasons = %v, want a verdict-flip reason", flip.Reasons)
	}
	stable := byKey["bert-base/h100"]
	if stable.Drifted || stable.VerdictFlipped || stable.SingleRevision {
		t.Fatalf("bert-base/h100 = %+v, want comparable and undrifted", stable)
	}
}

func TestDriftAttainableAndLatencyThresholds(t *testing.T) {
	var metas []Meta
	for i := 0; i < 5; i++ {
		metas = append(metas, driftMeta("m", "p", "rev1", "d1", "compute", 1e14, 10*time.Millisecond, i))
	}
	// rev2: ceiling down 20%, latency p50 up ~50% — both beyond 5%.
	for i := 10; i < 15; i++ {
		metas = append(metas, driftMeta("m", "p", "rev2", "d1", "compute", 0.8e14, 15*time.Millisecond, i))
	}
	rep := ComputeDrift(metas, DriftOptions{})
	if rep.DriftedKeys != 1 {
		t.Fatalf("DriftedKeys = %d, want 1: %+v", rep.DriftedKeys, rep.Keys)
	}
	k := rep.Keys[0]
	if k.VerdictFlipped {
		t.Error("verdict flip flagged without a bound change")
	}
	if k.AttainableDelta > -0.15 || k.AttainableDelta < -0.25 {
		t.Errorf("AttainableDelta = %v, want ~ -0.2", k.AttainableDelta)
	}
	if k.LatencyP50Delta < 0.3 {
		t.Errorf("LatencyP50Delta = %v, want a large positive shift", k.LatencyP50Delta)
	}
	// A generous threshold silences both signals.
	loose := ComputeDrift(metas, DriftOptions{RelThreshold: 0.9})
	if loose.DriftedKeys != 0 {
		t.Errorf("threshold 0.9 still drifted: %+v", loose.Keys)
	}
}

func TestDriftSingleRevision(t *testing.T) {
	var metas []Meta
	for i := 0; i < 4; i++ {
		metas = append(metas, driftMeta("m", "p", "rev1", "d1", "compute", 1e14, time.Millisecond, i))
	}
	rep := ComputeDrift(metas, DriftOptions{})
	if len(rep.Keys) != 1 || !rep.Keys[0].SingleRevision || rep.Keys[0].Drifted {
		t.Fatalf("single-revision key = %+v, want SingleRevision and no drift", rep.Keys)
	}
}

func TestDriftPinnedBaseline(t *testing.T) {
	var metas []Meta
	for i := 0; i < 3; i++ {
		metas = append(metas, driftMeta("m", "p", "rev1", "d1", "compute", 1e14, time.Millisecond, i))
	}
	for i := 10; i < 13; i++ {
		metas = append(metas, driftMeta("m", "p", "rev2", "d1", "memory", 1e14, time.Millisecond, i))
	}
	for i := 20; i < 23; i++ {
		metas = append(metas, driftMeta("m", "p", "rev3", "d1", "memory", 1e14, time.Millisecond, i))
	}
	// Default baseline is rev1 (oldest): flip.
	if rep := ComputeDrift(metas, DriftOptions{}); !rep.Keys[0].VerdictFlipped {
		t.Fatal("default baseline rev1 should flip vs rev3")
	}
	// Pinned to rev2: no flip (both memory-bound).
	rep := ComputeDrift(metas, DriftOptions{BaselineGitRev: "rev2"})
	k := rep.Keys[0]
	if k.Baseline.GitRev != "rev2" {
		t.Fatalf("pinned baseline = %q, want rev2", k.Baseline.GitRev)
	}
	if k.VerdictFlipped {
		t.Error("rev2 vs rev3 flagged a verdict flip, both are memory-bound")
	}
	// Pinning to an unknown rev falls back to the default choice.
	if rep := ComputeDrift(metas, DriftOptions{BaselineGitRev: "nope"}); rep.Keys[0].Baseline.GitRev != "rev1" {
		t.Errorf("unknown pin baseline = %q, want fallback rev1", rep.Keys[0].Baseline.GitRev)
	}
}

func TestDriftStoreWideDigest(t *testing.T) {
	var metas []Meta
	for i := 0; i < 10; i++ {
		metas = append(metas, driftMeta("m", "p", "rev1", "d1", "compute", 1e14, 10*time.Millisecond, i))
		metas = append(metas, driftMeta("m2", "p", "rev1", "d1", "compute", 1e14, 20*time.Millisecond, i))
	}
	rep := ComputeDrift(metas, DriftOptions{})
	// The store-wide p50 sits between the two keys' latencies — proof
	// the per-key digests were merged, not replaced.
	if rep.LatencyP50 < 9*time.Millisecond || rep.LatencyP50 > 22*time.Millisecond {
		t.Errorf("store-wide p50 = %s, want within the merged 10-20ms span", rep.LatencyP50)
	}
	if rep.LatencyP99 < rep.LatencyP50 {
		t.Errorf("p99 %s < p50 %s", rep.LatencyP99, rep.LatencyP50)
	}
}

// TestDriftComparesLikeWithLike: resnet-50/a100 stored at batch 1
// under one git revision and at batch 128 under the next, with the
// descriptor unchanged, is two series that each hold one revision, not
// a drifted pair (p50 435 µs -> 11.09 ms and the ceiling +91% are the
// batch, not the code). The records carry no series, as a store
// written before series existed does, so each falls into the legacy
// series of its stored configuration.
func TestDriftComparesLikeWithLike(t *testing.T) {
	rep := ComputeDrift(batchProbeMetas(), DriftOptions{})
	if rep.DriftedKeys != 0 || len(rep.Keys) != 2 {
		t.Fatalf("drift = %d drifted of %d keys, want 0 of 2: %+v", rep.DriftedKeys, len(rep.Keys), rep.Keys)
	}
	for _, k := range rep.Keys {
		if !k.SingleRevision {
			t.Errorf("key = %+v, want a single-revision series", k)
		}
	}
}

// batchProbeMetas is resnet-50/a100 at batch 1 under revA and at batch
// 128 under revB, one descriptor, no stored series.
func batchProbeMetas() []Meta {
	var metas []Meta
	for i := 0; i < 3; i++ {
		m := driftMeta("resnet-50", "a100", "revA", "d1", "memory", 1.6e14, 435*time.Microsecond, i)
		m.Backend, m.Batch, m.DType, m.Mode = "trtsim", 1, "fp16", "predicted"
		metas = append(metas, m)
	}
	for i := 10; i < 13; i++ {
		m := driftMeta("resnet-50", "a100", "revB", "d1", "compute", 3.05e14, 11090*time.Microsecond, i)
		m.Backend, m.Batch, m.DType, m.Mode = "trtsim", 128, "fp16", "predicted"
		metas = append(metas, m)
	}
	return metas
}

// TestDriftSeries: each key names its series and echoes its
// configuration, and a stored series splits records that share every
// legacy field (two clock settings, say).
func TestDriftSeries(t *testing.T) {
	metas := batchProbeMetas()
	batches := map[int]bool{}
	for _, k := range ComputeDrift(metas, DriftOptions{}).Keys {
		if k.Series == "" || k.Backend != "trtsim" || k.DType != "fp16" || k.Mode != "predicted" {
			t.Errorf("key = %+v, want a named series echoing its configuration", k)
		}
		batches[k.Batch] = true
	}
	if !batches[1] || !batches[128] {
		t.Errorf("series batches = %v, want 1 and 128", batches)
	}

	for i := range metas {
		metas[i].Batch = 1
		metas[i].Series = "clocks-a"
		if i >= 3 {
			metas[i].Series = "clocks-b"
		}
	}
	rep := ComputeDrift(metas, DriftOptions{})
	if rep.DriftedKeys != 0 || len(rep.Keys) != 2 {
		t.Fatalf("stored series: %d drifted of %d keys, want 0 of 2", rep.DriftedKeys, len(rep.Keys))
	}
	if rep.Keys[0].Series != "clocks-a" || rep.Keys[1].Series != "clocks-b" {
		t.Errorf("series = %q, %q, want clocks-a, clocks-b in order", rep.Keys[0].Series, rep.Keys[1].Series)
	}
}
