package memo

import (
	"strings"
	"testing"
)

// report returns a stand-in for an encoded report of name: the store
// keeps its values as opaque strings.
func report(name string) string { return "report:" + name }

func TestStoreHitAndMiss(t *testing.T) {
	s := NewStore(StoreConfig{})
	if _, ok := s.Get("a"); ok {
		t.Fatal("phantom report")
	}
	s.Put("a", report("a"), 3)
	for i := 0; i < 2; i++ {
		if r, ok := s.Get("a"); !ok || r != report("a") {
			t.Fatalf("lookup %d: %q ok=%v", i, r, ok)
		}
	}
	// Hits count the units the two report hits served, misses the units
	// profiled into the stored report.
	want := Stats{Units: 3, Reports: 1, Hits: 6, Misses: 3, PlanHits: 2, PlanMisses: 1}
	if st := s.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if got := s.Stats().HitRatio(); got != 6.0/9 {
		t.Fatalf("hit ratio: %v", got)
	}
}

// TestStoreLRUEviction: the bound is in units. Reports leave in recency
// order until the units held fit, a stored-again report is re-weighed,
// and a report heavier than the whole capacity is not kept.
func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(StoreConfig{UnitCapacity: 10})
	s.Put("a", report("a"), 4)
	s.Put("b", report("b"), 4)
	s.Get("a")                 // "b" is now the least recently used
	s.Put("c", report("c"), 3) // 11 > 10: "b" leaves
	if st := s.Stats(); st.Units != 7 || st.Reports != 2 || st.Evictions != 1 {
		t.Fatalf("after one eviction: %+v", st)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("the least recently used report survived")
	}
	s.Put("c", report("c6"), 6) // re-weighed: 4 + 6 fits
	if st := s.Stats(); st.Units != 10 || st.Reports != 2 || st.Evictions != 1 {
		t.Fatalf("after storing c again: %+v", st)
	}
	if r, _ := s.Get("c"); r != report("c6") {
		t.Fatalf("c reads %q after it was stored again", r)
	}
	s.Put("d", strings.Repeat("d", 64), 11) // heavier than the capacity
	if st := s.Stats(); st.Units != 10 || st.Reports != 2 || st.Evictions != 2 {
		t.Fatalf("after a too-heavy report: %+v", st)
	}
	if _, ok := s.Get("d"); ok {
		t.Fatal("a report heavier than the capacity was kept")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("report %s was evicted for a report that cannot fit", k)
		}
	}
}

// TestStorePlans: reports of one unit each make the store an LRU of
// UnitCapacity reports, and a report of no layers weighs one unit.
func TestStorePlans(t *testing.T) {
	s := NewStore(StoreConfig{UnitCapacity: 2})
	s.Put("a", report("ma"), 1)
	s.Put("b", report("mb"), 0)
	r, ok := s.Get("a") // touch "a": "b" becomes the LRU victim
	if !ok || r != report("ma") {
		t.Fatalf("report a: %q ok=%v", r, ok)
	}
	s.Put("c", report("mc"), 1)
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU victim still stored")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Reports != 2 || st.Units != 2 {
		t.Fatalf("store stats: %+v", st)
	}
}
