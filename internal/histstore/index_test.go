package histstore

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestQueryMatchesLinear holds Query, which binary-searches the sorted
// index for its (model[, platform]) range, to the ground truth: a
// linear filter over every indexed entry, sorted newest first with the
// sequence number as tiebreaker, then paged. Random stores of up to
// 5,000 records, with model names that prefix one another and with
// timestamp ties, are queried with every filter combination.
func TestQueryMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	models := []string{"alex", "alexa", "alexb", "m1", "m10", "m2", "zeta"}
	platforms := []string{"a10", "a100", "h100"}
	revs := []string{"r1", "r2", "r3"}
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	for _, n := range []int{0, 1, 2, 33, 1000, 5000} {
		s := mustOpen(t, t.TempDir(), Options{})
		for i := 0; i < n; i++ {
			m := testMeta(pick(models), pick(platforms), pick(revs), rng.IntN(200))
			m.DescriptorHash = fmt.Sprintf("d%d", rng.IntN(2))
			if err := s.Append(m, testReport(m.Model, m.Platform, i)); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.entries) != n {
			t.Fatalf("n=%d: index holds %d entries", n, len(s.entries))
		}

		linear := func(q Query) ([]string, int) {
			var ms []*ixEntry
			for _, e := range s.entries {
				m := e.meta
				if (q.Model == "" || m.Model == q.Model) &&
					(q.Platform == "" || m.Platform == q.Platform) &&
					(q.GitRev == "" || m.GitRev == q.GitRev) &&
					(q.Since.IsZero() || m.TimestampNS >= q.Since.UnixNano()) &&
					(q.Until.IsZero() || m.TimestampNS <= q.Until.UnixNano()) {
					ms = append(ms, e)
				}
			}
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].meta.TimestampNS != ms[j].meta.TimestampNS {
					return ms[i].meta.TimestampNS > ms[j].meta.TimestampNS
				}
				return ms[i].seq > ms[j].seq
			})
			total := len(ms)
			ms = ms[min(q.Offset, len(ms)):]
			if q.Limit > 0 {
				ms = ms[:min(q.Limit, len(ms))]
			}
			ids := make([]string, len(ms))
			for i, e := range ms {
				ids[i] = entryID(e.seg, e.off)
			}
			return ids, total
		}

		at := func(i int) time.Time { return time.Unix(0, tsBase+int64(i)*int64(time.Second)) }
		var queries []Query
		for _, model := range append([]string{"", "al", "alexab", "m"}, models...) {
			for _, platform := range append([]string{"", "a1", "b200"}, platforms...) {
				for _, rev := range []string{"", "r2", "r9"} {
					queries = append(queries, Query{Model: model, Platform: platform, GitRev: rev})
				}
			}
		}
		for i := 0; i < 100; i++ {
			q := Query{
				Model:    pick(append([]string{""}, models...)),
				Platform: pick(append([]string{""}, platforms...)),
				GitRev:   pick(append([]string{""}, revs...)),
				Offset:   rng.IntN(3) * rng.IntN(50),
				Limit:    rng.IntN(3) * rng.IntN(50),
			}
			if rng.IntN(2) == 0 {
				q.Since = at(rng.IntN(220) - 10)
			}
			if rng.IntN(2) == 0 {
				q.Until = at(rng.IntN(220) - 10)
			}
			queries = append(queries, q)
		}
		for _, q := range queries {
			wantIDs, wantTotal := linear(q)
			got, total, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs := make([]string, len(got))
			for i, e := range got {
				gotIDs[i] = e.ID
			}
			if total != wantTotal || !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("n=%d Query(%+v) = %d entries, total %d; linear gives %d entries, total %d",
					n, q, len(gotIDs), total, len(wantIDs), wantTotal)
			}
		}
	}
}

func TestPrefixRange(t *testing.T) {
	var entries []*ixEntry
	for _, m := range []string{"alex", "alexa", "bert"} {
		for _, p := range []string{"a100", "h100"} {
			for ts := 0; ts < 3; ts++ {
				entries = append(entries, &ixEntry{
					meta: Meta{Model: m, Platform: p, TimestampNS: int64(ts)},
					seq:  uint64(len(entries)),
				})
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return compareKey(entries[i], entries[j]) < 0 })

	check := func(model, platform string, want int) {
		t.Helper()
		start, end := prefixRange(entries, model, platform)
		got := 0
		for i := start; i < end; i++ {
			e := entries[i]
			if e.meta.Model != model || (platform != "" && e.meta.Platform != platform) {
				t.Fatalf("prefixRange(%q, %q) included %+v", model, platform, e.meta)
			}
			got++
		}
		if got != want {
			t.Fatalf("prefixRange(%q, %q) = %d entries, want %d", model, platform, got, want)
		}
	}
	// "alex" must not absorb "alexa" — exact-key semantics.
	check("alex", "", 6)
	check("alexa", "", 6)
	check("bert", "a100", 3)
	check("nope", "", 0)
	if start, end := prefixRange(entries, "", ""); start != 0 || end != len(entries) {
		t.Errorf("empty-model range = [%d, %d), want the whole index", start, end)
	}
}

func TestIndexFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	var entries []*ixEntry
	for i := 0; i < 100; i++ {
		m := testMeta(fmt.Sprintf("m%d", i%7), "p", "r", i)
		raw, _ := json.Marshal(m)
		entries = append(entries, &ixEntry{meta: m, metaRaw: raw, seq: uint64(i + 1), seg: uint32(i % 3), off: int64(i * 100), plen: uint32(50 + i)})
	}
	sort.Slice(entries, func(i, j int) bool { return compareKey(entries[i], entries[j]) < 0 })
	covered := map[uint32]int64{0: 111, 1: 222, 2: 333}
	if err := writeIndexFile(dir, 101, covered, entries); err != nil {
		t.Fatal(err)
	}
	ix, err := readIndexFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.nextSeq != 101 || len(ix.entries) != len(entries) || len(ix.covered) != 3 {
		t.Fatalf("roundtrip: nextSeq=%d entries=%d covered=%d", ix.nextSeq, len(ix.entries), len(ix.covered))
	}
	for i, e := range ix.entries {
		o := entries[i]
		if e.meta != o.meta || e.seq != o.seq || e.seg != o.seg || e.off != o.off || e.plen != o.plen {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, o)
		}
	}
}
