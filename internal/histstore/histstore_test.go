package histstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// tsBase keeps test timestamps deterministic and ordered.
const tsBase = int64(1_700_000_000_000_000_000)

func testMeta(model, platform, rev string, i int) Meta {
	return Meta{
		Model:           model,
		Platform:        platform,
		DescriptorHash:  "dh-" + platform,
		GitRev:          rev,
		TimestampNS:     tsBase + int64(i)*int64(time.Second),
		Backend:         "trtsim",
		Batch:           8,
		DType:           "fp16",
		Mode:            "predicted",
		Bound:           "compute",
		AttainableFLOPS: 1e14,
		AttainedFLOPS:   7e13,
		LatencyNS:       int64(3 * time.Millisecond),
	}
}

func testReport(model, platform string, i int) []byte {
	return []byte(fmt.Sprintf(`{"model":%q,"platform":%q,"n":%d,"payload":"xxxxxxxxxxxxxxxx"}`,
		model, platform, i))
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := map[string][]byte{}
	for i := 0; i < 25; i++ {
		model := fmt.Sprintf("model-%d", i%5)
		m := testMeta(model, "a100", "rev1", i)
		body := testReport(model, "a100", i)
		if err := s.Append(m, body); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want[fmt.Sprint(i)] = body
	}
	entries, total, err := s.Query(Query{Model: "model-2"})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if total != 5 || len(entries) != 5 {
		t.Fatalf("Query(model-2) = %d entries (total %d), want 5", len(entries), total)
	}
	for _, e := range entries {
		body, err := s.Get(e)
		if err != nil {
			t.Fatalf("Get(%s): %v", e.ID, err)
		}
		if e.Meta.Model != "model-2" || !bytes.Contains(body, []byte(`"model-2"`)) {
			t.Errorf("Get(%s) meta/body mismatch: %s", e.ID, body)
		}
	}
	// Newest first.
	for i := 1; i < len(entries); i++ {
		if entries[i].Meta.TimestampNS > entries[i-1].Meta.TimestampNS {
			t.Fatalf("entries not newest-first at %d", i)
		}
	}
	if st := s.Stats(); st.Records != 25 || st.Appends != 25 || st.Segments != 1 {
		t.Errorf("Stats = %+v, want 25 records, 25 appends, 1 segment", st)
	}
}

func TestStoreAppendValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Append(Meta{Platform: "a100"}, []byte("{}")); err == nil {
		t.Error("Append without model succeeded, want error")
	}
	if err := s.Append(Meta{Model: "m"}, []byte("{}")); err == nil {
		t.Error("Append without platform succeeded, want error")
	}
}

func TestStoreGetID(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	body := testReport("m", "p", 0)
	if err := s.Append(testMeta("m", "p", "r", 0), body); err != nil {
		t.Fatal(err)
	}
	entries, _, _ := s.Query(Query{})
	meta, got, err := s.GetID(entries[0].ID)
	if err != nil {
		t.Fatalf("GetID(%s): %v", entries[0].ID, err)
	}
	if meta.Model != "m" || !bytes.Equal(got, body) {
		t.Errorf("GetID returned meta %+v body %s", meta, got)
	}
	for _, bad := range []string{"", "zz", "1:2:3", "01:2", "9:9"} {
		if _, _, err := s.GetID(bad); !errors.Is(err, ErrUnknownRecord) {
			t.Errorf("GetID(%q) = %v, want ErrUnknownRecord", bad, err)
		}
	}
}

// TestGetIDMatchesGetAcrossCompact: every entry's ID resolves through
// GetID to the meta and bytes Get returns for it, before and after
// Compact moves every record; an ID from before Compact, naming an
// address no record has any more, resolves to nothing.
func TestGetIDMatchesGetAcrossCompact(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{SegmentBytes: 4 << 10})
	for i := 0; i < 40; i++ {
		model := fmt.Sprintf("model-%d", i%4)
		if err := s.Append(testMeta(model, "a100", "r", i), testReport(model, "a100", i)); err != nil {
			t.Fatal(err)
		}
	}
	resolveAll := func(stage string) []Entry {
		t.Helper()
		entries, total, err := s.Query(Query{})
		if err != nil || total != 40 {
			t.Fatalf("%s: Query: %d entries, %v", stage, total, err)
		}
		for _, e := range entries {
			want, err := s.Get(e)
			if err != nil {
				t.Fatal(err)
			}
			meta, got, err := s.GetID(e.ID)
			if err != nil {
				t.Fatalf("%s: GetID(%s): %v", stage, e.ID, err)
			}
			if meta != e.Meta || !bytes.Equal(got, want) {
				t.Errorf("%s: GetID(%s) = %+v and %d bytes, Get = %+v and %d bytes", stage, e.ID, meta, len(got), e.Meta, len(want))
			}
		}
		return entries
	}
	before := resolveAll("before Compact")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := resolveAll("after Compact")
	moved := map[string]bool{}
	for _, e := range after {
		moved[e.ID] = true
	}
	for _, e := range before {
		if moved[e.ID] {
			t.Fatalf("Compact left record %s at its address", e.ID)
		}
		if _, _, err := s.GetID(e.ID); err == nil {
			t.Errorf("GetID(%s), an address from before Compact, still resolves", e.ID)
		}
	}
}

func TestStorePaging(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 30; i++ {
		if err := s.Append(testMeta("m", "p", "r", i), testReport("m", "p", i)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	for off := 0; ; off += 7 {
		entries, total, err := s.Query(Query{Model: "m", Platform: "p", Offset: off, Limit: 7})
		if err != nil {
			t.Fatal(err)
		}
		if total != 30 {
			t.Fatalf("total = %d, want 30", total)
		}
		if len(entries) == 0 {
			break
		}
		for _, e := range entries {
			seen = append(seen, e.ID)
		}
	}
	if len(seen) != 30 {
		t.Fatalf("paged %d entries, want 30", len(seen))
	}
	uniq := map[string]bool{}
	for _, id := range seen {
		if uniq[id] {
			t.Fatalf("entry %s returned twice across pages", id)
		}
		uniq[id] = true
	}
}

func TestStoreQueryFilters(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 10; i++ {
		rev := "rev-a"
		if i >= 5 {
			rev = "rev-b"
		}
		if err := s.Append(testMeta("m", "p", rev, i), testReport("m", "p", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, total, _ := s.Query(Query{Model: "m", GitRev: "rev-b"}); total != 5 {
		t.Errorf("GitRev filter total = %d, want 5", total)
	}
	since := time.Unix(0, tsBase+7*int64(time.Second))
	if _, total, _ := s.Query(Query{Model: "m", Since: since}); total != 3 {
		t.Errorf("Since filter total = %d, want 3", total)
	}
	until := time.Unix(0, tsBase+2*int64(time.Second))
	if _, total, _ := s.Query(Query{Model: "m", Until: until}); total != 3 {
		t.Errorf("Until filter total = %d, want 3", total)
	}
	// Platform-only query: full-index range with a filter.
	if _, total, _ := s.Query(Query{Platform: "p"}); total != 10 {
		t.Errorf("platform-only total = %d, want 10", total)
	}
	if _, total, _ := s.Query(Query{Platform: "other"}); total != 0 {
		t.Errorf("wrong-platform total = %d, want 0", total)
	}
}

func TestStoreRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	s := mustOpen(t, dir, Options{SegmentBytes: 512})
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Append(testMeta("m", "p", "r", i), testReport("m", "p", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 5 {
		t.Fatalf("Segments = %d, want rotation to have produced several", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{SegmentBytes: 512})
	if got := s2.Stats(); got.Records != n || got.Segments != st.Segments {
		t.Fatalf("reopened Stats = %+v, want %d records in %d segments", got, n, st.Segments)
	}
	entries, total, err := s2.Query(Query{Model: "m"})
	if err != nil || total != n {
		t.Fatalf("reopened Query total = %d (err %v), want %d", total, err, n)
	}
	for _, e := range entries {
		if _, err := s2.Get(e); err != nil {
			t.Fatalf("reopened Get(%s): %v", e.ID, err)
		}
	}
}

// TestStorePartialReads is the issue's read-byte accounting criterion:
// against a 1k-report history spread over many models and segments, a
// clean reopen must read nothing (the persisted watermarks cover every
// byte), and paging one (model, platform) key must read exactly the
// matching records' bytes — not the other ~90% of the store.
func TestStorePartialReads(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 4096})
	const n = 1000
	var wantBytes int64
	for i := 0; i < n; i++ {
		model := fmt.Sprintf("model-%d", i%10)
		if err := s.Append(testMeta(model, "a100", "r", i), testReport(model, "a100", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{SegmentBytes: 4096})
	st := s2.Stats()
	if st.Records != n {
		t.Fatalf("reopened with %d records, want %d", st.Records, n)
	}
	if st.ReadBytes != 0 {
		t.Fatalf("clean reopen read %d segment bytes, want 0 (watermarks cover everything)", st.ReadBytes)
	}
	if st.Segments < 20 {
		t.Fatalf("Segments = %d, want the history spread over many segments", st.Segments)
	}

	entries, total, err := s2.Query(Query{Model: "model-3", Platform: "a100"})
	if err != nil || total != n/10 {
		t.Fatalf("Query total = %d (err %v), want %d", total, err, n/10)
	}
	if got := s2.Stats().ReadBytes; got != 0 {
		t.Fatalf("index-only Query read %d bytes, want 0", got)
	}
	for _, e := range entries {
		wantBytes += recordHeaderSize + int64(e.plen)
		if _, err := s2.Get(e); err != nil {
			t.Fatalf("Get(%s): %v", e.ID, err)
		}
	}
	if got := s2.Stats().ReadBytes; got != wantBytes {
		t.Fatalf("reading one key touched %d bytes, want exactly the %d bytes of its %d records",
			got, wantBytes, len(entries))
	}
	// Sanity: the key's bytes are a small fraction of the store.
	if wantBytes*5 > st.Bytes {
		t.Fatalf("partial read %d bytes vs store %d — not partial", wantBytes, st.Bytes)
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 40; i++ {
		if err := s.Append(testMeta("m", "p", "r", i), testReport("m", "p", i)); err != nil {
			t.Fatal(err)
		}
	}
	before, _, _ := s.Query(Query{Model: "m"})
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, total, err := s.Query(Query{Model: "m"})
	if err != nil || total != 40 {
		t.Fatalf("post-compact Query total = %d (err %v), want 40", total, err)
	}
	if len(after) != len(before) {
		t.Fatalf("compact changed entry count %d -> %d", len(before), len(after))
	}
	for i, e := range after {
		body, err := s.Get(e)
		if err != nil {
			t.Fatalf("post-compact Get(%s): %v", e.ID, err)
		}
		if e.Meta != before[i].Meta {
			t.Errorf("compact reordered entry %d", i)
		}
		_ = body
	}
	if rep, err := s.Verify(); err != nil || !rep.Ok() {
		t.Fatalf("post-compact Verify = %+v (err %v), want clean", rep, err)
	}
	// Appends keep working after compaction.
	if err := s.Append(testMeta("m", "p", "r", 99), testReport("m", "p", 99)); err != nil {
		t.Fatalf("post-compact Append: %v", err)
	}
	// And the compacted store survives a reopen.
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 512})
	if st := s2.Stats(); st.Records != 41 {
		t.Fatalf("post-compact reopen Records = %d, want 41", st.Records)
	}
}

func TestWriterAsync(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	w := NewWriter(s, 8)
	for i := 0; i < 5; i++ {
		if !w.Enqueue(testMeta("m", "p", "r", i), testReport("m", "p", i)) {
			t.Fatalf("Enqueue %d rejected", i)
		}
	}
	if err := w.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := s.Stats(); st.Records != 5 {
		t.Fatalf("after Flush, Records = %d, want 5", st.Records)
	}
	if err := w.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Enqueue(testMeta("m", "p", "r", 9), testReport("m", "p", 9)) {
		t.Error("Enqueue after Close succeeded")
	}
	if w.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", w.Dropped())
	}
	if err := w.Flush(context.Background()); err != nil { // must not hang or panic on a closed writer
		t.Fatalf("Flush after Close: %v", err)
	}
}

func TestWriterInvalidRecordCountsError(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	w := NewWriter(s, 4)
	defer w.Close(context.Background())
	w.Enqueue(Meta{}, []byte("{}")) // no model/platform: append fails
	w.Flush(context.Background())
	if w.Errors() != 1 {
		t.Errorf("Errors = %d, want 1", w.Errors())
	}
}
