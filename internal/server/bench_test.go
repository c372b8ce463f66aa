package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServerProfileCacheHit measures the end-to-end HTTP latency
// of the service hot path: POST /v1/profile answered from the session
// report cache (admission, routing, decoding the stored report, JSON
// encoding) — the number a capacity plan for repeated-configuration
// traffic starts from.
func BenchmarkServerProfileCacheHit(b *testing.B) {
	s := New(Config{Logger: quietLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"model":"mobilenetv2-0.5","platform":"a100","batch":8,"seed":1}`
	// Prime the cache so every measured iteration is a hit.
	resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("prime request: status %d", resp.StatusCode)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if c := resp.Header.Get("X-Cache"); c != "hit" {
			b.Fatalf("X-Cache = %q, want hit", c)
		}
	}
}
