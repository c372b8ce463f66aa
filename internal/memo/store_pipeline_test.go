package memo_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/memo"
)

// plainReports profiles each point with the plain pipeline and returns
// the report JSON by point index.
func plainReports(t *testing.T, points []core.Options) [][]byte {
	t.Helper()
	out := make([][]byte, len(points))
	for i, opts := range points {
		raw, err := reportJSON(t, core.ProfileCtx, opts)
		if err != nil {
			t.Fatalf("%s/%s batch %d: %v", opts.Model, opts.Platform, opts.Batch, err)
		}
		out[i] = raw
	}
	return out
}

// TestStoreBoundHoldsInUnits fills a store past its unit capacity,
// behind a session whose report store holds one report, so every point
// but the last one served misses it: the units held never exceed the
// capacity after any stored report, least recently used reports are
// evicted, and points evicted and stored again still report
// byte-identically to their plain runs.
func TestStoreBoundHoldsInUnits(t *testing.T) {
	var points []core.Options
	for _, m := range []string{"resnet-18", "mobilenetv2-0.5", "vit-t"} {
		for _, b := range []int{1, 2, 4} {
			points = append(points, core.Options{Model: m, Platform: "a100", Batch: b})
		}
	}
	want := plainReports(t, points)
	// 150 units hold about three of these reports (25, 56 and 42 layers).
	const capacity = 150
	store := memo.NewStore(memo.StoreConfig{UnitCapacity: capacity})
	sess := newMemoSession(1, store)
	profile := func(i int) {
		t.Helper()
		opts := points[i]
		got, err := reportJSON(t, sess.ProfileCtx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[i]) {
			t.Fatalf("point %d (%s batch %d) differs from its plain run", i, opts.Model, opts.Batch)
		}
		if st := store.Stats(); st.Units > capacity {
			t.Fatalf("after point %d the store holds %d units, capacity %d", i, st.Units, capacity)
		}
	}
	for i := range points {
		profile(i)
	}
	// Walk back: the newest reports hit, the older ones were evicted and
	// are stored again.
	for i := len(points) - 1; i >= 0; i-- {
		profile(i)
	}
	st := store.Stats()
	if st.Evictions == 0 || st.PlanHits == 0 || st.PlanMisses <= int64(len(points)) {
		t.Fatalf("the walk did not both hit and store evicted reports again: %+v", st)
	}
}

// TestStoreConcurrentSweeps: goroutines profile overlapping points,
// each through its own session of one report, so every request misses
// its session and looks the point up in the one shared store. The store
// holds two or three of the four reports, so reports are evicted while
// other goroutines read them. Every report must be byte-identical to
// its plain run (CI runs this under -race -count=2).
func TestStoreConcurrentSweeps(t *testing.T) {
	const goroutines, rounds = 6, 3
	var points []core.Options
	for _, m := range []string{"resnet-18", "vit-t"} {
		for _, b := range []int{1, 2} {
			points = append(points, core.Options{Model: m, Platform: "a100", Batch: b})
		}
	}
	want := plainReports(t, points)
	// The four reports hold 134 units (25, 25, 42, 42 layers).
	const capacity = 100
	store := memo.NewStore(memo.StoreConfig{UnitCapacity: capacity})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := newMemoSession(1, store)
			for r := 0; r < rounds; r++ {
				for i := range points {
					n := (g + i) % len(points)
					rep, err := sess.ProfileCtx(context.Background(), points[n])
					if err != nil {
						t.Errorf("goroutine %d point %d: %v", g, n, err)
						return
					}
					if got, _ := json.Marshal(rep); string(got) != string(want[n]) {
						t.Errorf("goroutine %d point %d: report differs from its plain run", g, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := store.Stats()
	if st.Units > capacity || st.Evictions == 0 || st.PlanHits == 0 {
		t.Fatalf("store after the sweeps: %+v, want hits, evictions and at most %d units", st, capacity)
	}
	if lookups := st.PlanHits + st.PlanMisses; lookups != goroutines*rounds*int64(len(points)) {
		t.Fatalf("%d report lookups for %d profiles", lookups, goroutines*rounds*len(points))
	}
}

// reshapeGraph is a graph whose Reshape target fixes batch 1, so it
// profiles at batch 1 and fails shape inference at any other batch.
func reshapeGraph() *graph.Graph {
	g := graph.New("fixed-batch")
	g.AddTensor(&graph.Tensor{Name: "in", DType: graph.Float32, Shape: graph.Shape{1, 256}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{256, 256}, Param: true})
	g.AddTensor(&graph.Tensor{Name: "mid", DType: graph.Float32, Shape: graph.Shape{1, 256}})
	g.AddTensor(&graph.Tensor{Name: "shape", DType: graph.Int64, Shape: graph.Shape{2}, Param: true, IntData: []int64{1, 256}})
	g.AddTensor(&graph.Tensor{Name: "out", DType: graph.Float32, Shape: graph.Shape{1, 256}})
	g.AddNode(&graph.Node{Name: "fc", OpType: "Gemm", Inputs: []string{"in", "w"}, Outputs: []string{"mid"}})
	g.AddNode(&graph.Node{Name: "flat", OpType: "Reshape", Inputs: []string{"mid", "shape"}, Outputs: []string{"out"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"out"}
	return g
}

// TestStoreErrorNeverCached: a request whose execution fails after
// missing the store stores no report and counts no units; the point's
// next successful execution stores one, which serves the point once the
// session's report store has let it go.
func TestStoreErrorNeverCached(t *testing.T) {
	store := memo.NewStore(memo.StoreConfig{})
	sess := newMemoSession(0, store)
	opts := core.Options{Graph: reshapeGraph(), Platform: "a100", Batch: 2}
	_, err := sess.ProfileCtx(context.Background(), opts)
	if _, ok := graph.AsValidationError(err); !ok {
		t.Fatalf("batch 2: err = %v, want a shape-inference defect", err)
	}
	if st := store.Stats(); st != (memo.Stats{PlanMisses: 1}) {
		t.Fatalf("after a failed execution: %+v, want one lookup miss and nothing stored", st)
	}
	opts.Batch = 1
	for pass := 0; pass < 2; pass++ {
		if _, err := sess.ProfileCtx(context.Background(), opts); err != nil {
			t.Fatalf("batch 1 pass %d: %v", pass, err)
		}
		sess.Reset()
	}
	st := store.Stats()
	if st.Reports != 1 || st.PlanHits != 1 || st.Misses == 0 || st.Hits != st.Misses {
		t.Fatalf("after a successful store and hit: %+v", st)
	}
	if n := sess.executions.Load(); n != 2 {
		t.Fatalf("%d executions, want the failed one and one success", n)
	}
}
