package histstore

import (
	"fmt"
	"testing"
)

// BenchmarkStoreAppendQuery is the index's work for one stored profile
// and one history page: an append into a store of 10k records (50
// models on 4 platforms), then the two prefix queries, by model and by
// model and platform, each paged at /v1/history's default 50.
func BenchmarkStoreAppendQuery(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() }) // after the timer: Close writes the index file
	platforms := []string{"a100", "h100", "orin-nx", "rpi4b"}
	meta := func(i int) Meta {
		return testMeta(fmt.Sprintf("model-%02d", i%50), platforms[i/50%4], "r", i)
	}
	const preload = 10_000
	for i := 0; i < preload; i++ {
		m := meta(i)
		if err := s.Append(m, testReport(m.Model, m.Platform, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := meta(preload + i)
		if err := s.Append(m, testReport(m.Model, m.Platform, i)); err != nil {
			b.Fatal(err)
		}
		if _, total, _ := s.Query(Query{Model: m.Model, Limit: 50}); total == 0 {
			b.Fatal("model query found nothing")
		}
		if _, total, _ := s.Query(Query{Model: m.Model, Platform: m.Platform, Limit: 50}); total == 0 {
			b.Fatal("model and platform query found nothing")
		}
	}
}

// BenchmarkGetID resolves record IDs in a store of 10k records: the
// address lookup plus the read of one report.
func BenchmarkGetID(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	const records = 10_000
	for i := 0; i < records; i++ {
		model := fmt.Sprintf("model-%02d", i%50)
		if err := s.Append(testMeta(model, "a100", "r", i), testReport(model, "a100", i)); err != nil {
			b.Fatal(err)
		}
	}
	entries, _, err := s.Query(Query{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.GetID(entries[i*7919%len(entries)].ID); err != nil {
			b.Fatal(err)
		}
	}
}
