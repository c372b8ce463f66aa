package memo

import (
	"fmt"
	"testing"
	"time"
)

// planN returns a plan of the given number of layers, named name/0,
// name/1, ..., each carrying a unit distinct from every other layer's.
func planN(name string, layers int) *Plan {
	p := &Plan{Layers: make([]PlanLayer, layers)}
	for i := range p.Layers {
		p.Layers[i] = PlanLayer{
			Name: fmt.Sprintf("%s/%d", name, i),
			Unit: Unit{Latency: time.Duration(i+1) * time.Microsecond, FLOP: int64(i+1) * 1000, Category: "conv"},
		}
	}
	return p
}

func TestStoreHitAndMiss(t *testing.T) {
	s := NewStore(StoreConfig{})
	if _, ok := s.Plan("a"); ok {
		t.Fatal("phantom plan")
	}
	s.PutPlan("a", planN("a", 3))
	for i := 0; i < 2; i++ {
		if p, ok := s.Plan("a"); !ok || p.Layers[0].Name != "a/0" || len(p.Layers) != 3 {
			t.Fatalf("lookup %d: %+v ok=%v", i, p, ok)
		}
	}
	// Hits count the units the two plan hits served, misses the units
	// profiled into the recorded plan.
	want := Stats{Units: 3, Plans: 1, Hits: 6, Misses: 3, PlanHits: 2, PlanMisses: 1}
	if st := s.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if got := s.Stats().HitRatio(); got != 6.0/9 {
		t.Fatalf("hit ratio: %v", got)
	}
}

// TestStoreLRUEviction: the bound is in units. Plans leave in recency
// order until the units held fit, a re-recorded plan is re-weighed, and
// a plan heavier than the whole capacity is not kept.
func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(StoreConfig{UnitCapacity: 10})
	s.PutPlan("a", planN("a", 4))
	s.PutPlan("b", planN("b", 4))
	s.Plan("a")                   // "b" is now the least recently used
	s.PutPlan("c", planN("c", 3)) // 11 > 10: "b" leaves
	if st := s.Stats(); st.Units != 7 || st.Plans != 2 || st.Evictions != 1 {
		t.Fatalf("after one eviction: %+v", st)
	}
	if _, ok := s.Plan("b"); ok {
		t.Fatal("the least recently used plan survived")
	}
	s.PutPlan("c", planN("c", 6)) // re-weighed: 4 + 6 fits
	if st := s.Stats(); st.Units != 10 || st.Plans != 2 || st.Evictions != 1 {
		t.Fatalf("after re-recording c: %+v", st)
	}
	s.PutPlan("d", planN("d", 11)) // heavier than the capacity
	if st := s.Stats(); st.Units != 10 || st.Plans != 2 || st.Evictions != 2 {
		t.Fatalf("after a too-heavy plan: %+v", st)
	}
	if _, ok := s.Plan("d"); ok {
		t.Fatal("a plan heavier than the capacity was kept")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Plan(k); !ok {
			t.Fatalf("plan %s was evicted for a plan that cannot fit", k)
		}
	}
}

// TestStorePlans: plans of one unit each make the store a plan LRU of
// UnitCapacity entries.
func TestStorePlans(t *testing.T) {
	s := NewStore(StoreConfig{UnitCapacity: 2})
	s.PutPlan("a", planN("ma", 1))
	s.PutPlan("b", planN("mb", 1))
	p, ok := s.Plan("a") // touch "a": "b" becomes the LRU victim
	if !ok || p.Layers[0].Name != "ma/0" {
		t.Fatalf("plan a: %+v ok=%v", p, ok)
	}
	s.PutPlan("c", planN("mc", 1))
	if _, ok := s.Plan("b"); ok {
		t.Fatal("plan LRU victim still cached")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Plans != 2 || st.Units != 2 {
		t.Fatalf("plan stats: %+v", st)
	}
}
