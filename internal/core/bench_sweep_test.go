package core_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/hardware"
	"proof/internal/models"
	"proof/internal/profsession"
)

var benchOut = flag.String("bench-out", "", "write the sweep benchmark artifact (BENCH_sweep.json) to this path")

// benchSweepSeed pins the jitter seed so the benchmark grid is the
// same workload on every run and every host.
const benchSweepSeed = 1

// benchSweepModels returns the 20-model benchmark slice of the zoo
// (deterministic: models.List is sorted by the registry).
func benchSweepModels() []models.Info {
	infos := models.List()
	if len(infos) > 20 {
		infos = infos[:20]
	}
	return infos
}

// sweepGrid profiles the full benchmark grid — 20 models × every
// platform × batch {1, platform default} — through profile and returns
// the number of successfully profiled points. Unsupported model/platform
// combinations are skipped, matching what a real sweep does.
func sweepGrid(profile core.ProfileFunc) int {
	points := 0
	for _, info := range benchSweepModels() {
		for _, p := range hardware.List() {
			for _, batch := range []int{1, 0} {
				_, err := profile(context.Background(), core.Options{
					Model:    info.Key,
					Platform: p.Key,
					Batch:    batch,
					Seed:     benchSweepSeed,
				})
				if err == nil {
					points++
				}
			}
		}
	}
	return points
}

// BenchmarkSweepMemo measures the sweep on the 20-model × all-platform
// × batch-grid workload. "off" runs the plain pipeline every iteration;
// "on" shares one session across iterations, whose report store holds
// the whole grid, so the first iteration executes every point (cold)
// and the rest are report-store hits (warm) — the steady state of a
// long-lived proofd. Regenerate the committed artifact with
// `make bench-sweep`.
func BenchmarkSweepMemo(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepGrid(core.ProfileCtx)
		}
	})
	b.Run("on", func(b *testing.B) {
		sess := profsession.New(0)
		for i := 0; i < b.N; i++ {
			sweepGrid(sess.ProfileCtx)
		}
	})
}

// sweepBenchArtifact is the committed BENCH_sweep.json schema: the
// pinned benchmark grid run plain and through a session (cold, then
// warm), the median wall time of each pass over the rounds, the
// speedups of those medians, and the report-store hits of one warm
// pass. Grid and seed are fixed, so point and hit counts are identical
// across runs; only wall times move with the host.
type sweepBenchArtifact struct {
	Name        string  `json:"name"`
	Seed        uint64  `json:"seed"`
	Models      int     `json:"models"`
	Platforms   int     `json:"platforms"`
	Batches     []int   `json:"batches"`
	Points      int     `json:"points"`
	Rounds      int     `json:"rounds"`
	PlainNs     int64   `json:"plain_ns"`
	ColdNs      int64   `json:"cold_ns"`
	WarmNs      int64   `json:"warm_ns"`
	ColdSpeedup float64 `json:"cold_speedup"`
	WarmSpeedup float64 `json:"warm_speedup"`
	WarmHits    int64   `json:"warm_hits"`
}

// sweepRounds is how often the artifact writer times each pass. A
// plain and a cold pass timed once each, always in that order, read
// cold speedups from 0.75 to 1.06 over three runs of the same code, so
// the rounds alternate which of the two goes first and the artifact
// pins each pass's median.
const sweepRounds = 5

// TestWriteSweepBenchArtifact regenerates BENCH_sweep.json when run
// with -bench-out (wired to `make bench-sweep`). Each round times a
// plain pass and a cold pass on a fresh session, in alternating order,
// then a warm pass on that session. The writer refuses to pin an
// artifact if any warm pass misses a point or the median warm pass is
// less than 5x faster than the median plain one.
func TestWriteSweepBenchArtifact(t *testing.T) {
	if *benchOut == "" {
		t.Skip("no -bench-out path; artifact regeneration runs via `make bench-sweep`")
	}
	timeGrid := func(profile core.ProfileFunc) (time.Duration, int) {
		t0 := time.Now()
		points := sweepGrid(profile)
		return time.Since(t0), points
	}

	// Zoo graphs are admitted once per process. Admit the grid's models
	// before timing anything, so the first timed pass (the plain one)
	// does not pay for every admission and flatter the cold ratio.
	for _, info := range benchSweepModels() {
		if _, err := core.ProfileCtx(context.Background(), core.Options{Model: info.Key, Platform: "a100", IgnoreSupport: true}); err != nil {
			t.Fatal(err)
		}
	}
	var plains, colds, warms []time.Duration
	points := 0
	var warmHits int64
	for r := 0; r < sweepRounds; r++ {
		sess := profsession.New(0)
		var plain, cold time.Duration
		if r%2 == 0 {
			plain, points = timeGrid(core.ProfileCtx)
			cold, _ = timeGrid(sess.ProfileCtx)
		} else {
			cold, _ = timeGrid(sess.ProfileCtx)
			plain, points = timeGrid(core.ProfileCtx)
		}
		hits := sess.Stats().Hits
		warm, _ := timeGrid(sess.ProfileCtx)
		warmHits = sess.Stats().Hits - hits
		if warmHits != int64(points) {
			t.Fatalf("round %d: warm pass hit %d reports of %d points: the report store is too small for the grid", r, warmHits, points)
		}
		plains, colds, warms = append(plains, plain), append(colds, cold), append(warms, warm)
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	plainDur, coldDur, warmDur := median(plains), median(colds), median(warms)

	art := sweepBenchArtifact{
		Name:        "bench-sweep",
		Seed:        benchSweepSeed,
		Models:      len(benchSweepModels()),
		Platforms:   len(hardware.List()),
		Batches:     []int{1, 0},
		Points:      points,
		Rounds:      sweepRounds,
		PlainNs:     plainDur.Nanoseconds(),
		ColdNs:      coldDur.Nanoseconds(),
		WarmNs:      warmDur.Nanoseconds(),
		ColdSpeedup: float64(plainDur) / float64(coldDur),
		WarmSpeedup: float64(plainDur) / float64(warmDur),
		WarmHits:    warmHits,
	}
	if art.WarmSpeedup < 5 {
		t.Fatalf("median warm sweep only %.1fx faster than the plain one (want >= 5x); not writing artifact", art.WarmSpeedup)
	}
	raw, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchOut, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: medians of %d rounds plain=%v cold=%v warm=%v (%.2fx cold, %.1fx warm, %d warm hits); plain %v, cold %v, warm %v",
		*benchOut, sweepRounds, plainDur, coldDur, warmDur, art.ColdSpeedup, art.WarmSpeedup, art.WarmHits, plains, colds, warms)
}

// TestSweepMemoSpeedup is the always-on guard behind the committed
// artifact: on a reduced grid (5 models × all platforms), the warm
// sweep through a session must beat the plain pipeline by a wide
// margin. The threshold is far below the measured speedup so scheduler
// noise cannot flake it, while still catching a broken report store (a
// warm pass that executes would land near 1x).
func TestSweepMemoSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	infos := benchSweepModels()[:5]
	grid := func(profile core.ProfileFunc) time.Duration {
		t0 := time.Now()
		for _, info := range infos {
			for _, p := range hardware.List() {
				_, _ = profile(context.Background(), core.Options{Model: info.Key, Platform: p.Key, Seed: benchSweepSeed})
			}
		}
		return time.Since(t0)
	}
	plain := grid(core.ProfileCtx)
	sess := profsession.New(0)
	grid(sess.ProfileCtx) // cold pass
	warm := grid(sess.ProfileCtx)
	if warm*3 > plain {
		t.Fatalf("warm session grid %v vs plain %v: less than 3x — the report store regressed", warm, plain)
	}
}

// TestSweepMemoizedMatchesPlain: a sweep through a session must produce
// the same rows as a plain sweep, and a repeat sweep must be served
// from the session's report store.
func TestSweepMemoizedMatchesPlain(t *testing.T) {
	plain, err := core.PlatformSweepCtx(context.Background(), "resnet-18", core.ModePredicted, core.ProfileCtx)
	if err != nil {
		t.Fatal(err)
	}
	sess := profsession.New(0)
	for pass := 0; pass < 2; pass++ {
		got, err := core.PlatformSweepCtx(context.Background(), "resnet-18", core.ModePredicted, sess.ProfileCtx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(plain) {
			t.Fatalf("pass %d: %d rows, want %d", pass, len(got), len(plain))
		}
		for i := range got {
			if got[i] != plain[i] {
				t.Fatalf("pass %d row %d differs:\n  plain:   %+v\n  session: %+v", pass, i, plain[i], got[i])
			}
		}
	}
	if st := sess.Stats(); st.Hits == 0 || st.Hits != st.Misses {
		t.Fatalf("the repeat sweep was not served from the report store: %+v", st)
	}
}
