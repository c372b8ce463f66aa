package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/hardware"
	"proof/internal/histstore"
	"proof/internal/profsession"
)

// openTestStore opens a history store in a temp dir, closed with the
// test.
func openTestStore(t *testing.T) *histstore.Store {
	t.Helper()
	st, err := histstore.Open(t.TempDir(), histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// seedHistory appends one crafted record directly to the store.
func seedHistory(t *testing.T, st *histstore.Store, m histstore.Meta, body string) {
	t.Helper()
	if err := st.Append(m, []byte(body)); err != nil {
		t.Fatal(err)
	}
}

// driftSeedMeta builds a history meta for endpoint drift tests.
func driftSeedMeta(model, platform, rev, desc, bound string, i int) histstore.Meta {
	return histstore.Meta{
		Model:           model,
		Platform:        platform,
		GitRev:          rev,
		DescriptorHash:  desc,
		Bound:           bound,
		AttainableFLOPS: 1e14,
		AttainedFLOPS:   7e13,
		LatencyNS:       int64(3 * time.Millisecond),
		TimestampNS:     time.Now().Add(time.Duration(i-100) * time.Minute).UnixNano(),
	}
}

// TestHistoryDifferentialByteIdentity is the issue's differential
// criterion: a report read back from the store must be byte-identical
// to the JSON proofd served for the original request — both straight
// off the store API and through GET /v1/history?id=.
func TestHistoryDifferentialByteIdentity(t *testing.T) {
	st := openTestStore(t)
	srv, ts := newTestServer(t, Config{History: st, GitRev: "abc123"})

	resp := postJSON(t, ts.URL+"/v1/profile",
		`{"model":"mobilenetv2-0.5","platform":"a100","batch":8,"seed":3}`)
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("profile status = %d (body %s)", resp.StatusCode, served)
	}
	srv.FlushHistory(context.Background())

	entries, total, err := st.Query(histstore.Query{Model: "mobilenetv2-0.5"})
	if err != nil || total != 1 {
		t.Fatalf("store Query total = %d (err %v), want 1", total, err)
	}
	e := entries[0]
	if e.Meta.GitRev != "abc123" || e.Meta.Platform != "a100" || e.Meta.Batch != 8 {
		t.Errorf("stored meta = %+v, want git_rev/platform/batch stamped", e.Meta)
	}
	if e.Meta.Bound == "" || e.Meta.DescriptorHash == "" || e.Meta.LatencyNS <= 0 {
		t.Errorf("stored meta missing roofline fields: %+v", e.Meta)
	}

	stored, err := st.Get(e)
	if err != nil {
		t.Fatal(err)
	}
	// The response is the stored bytes plus the trailing newline every
	// proofd JSON response carries.
	if want := string(stored) + "\n"; string(served) != want {
		t.Fatalf("stored report differs from served response\nserved: %.200s\nstored: %.200s", served, stored)
	}

	// The same bytes round-trip over the API.
	rr, err := http.Get(ts.URL + "/v1/history?id=" + e.ID)
	if err != nil {
		t.Fatal(err)
	}
	viaAPI, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != 200 || string(viaAPI) != string(served) {
		t.Fatalf("GET /v1/history?id= status %d, body differs from original response", rr.StatusCode)
	}

	// And the stored report still parses as the report proofd computed.
	var rep core.Report
	if err := json.Unmarshal(stored, &rep); err != nil {
		t.Fatalf("stored report does not parse: %v", err)
	}
	if rep.Model != "mobilenetv2-0.5" || rep.Platform != "a100" {
		t.Errorf("stored report identity = %s/%s", rep.Model, rep.Platform)
	}
}

// TestHistoryRecordIdentity: every record proofd stores takes its
// identity from the request the edge resolved: the descriptor hash of
// the resolved platform, the series and the resolved configuration,
// for a zoo request, an inline graph and a measured, clocked one.
func TestHistoryRecordIdentity(t *testing.T) {
	st := openTestStore(t)
	srv, ts := newTestServer(t, Config{History: st})
	for _, tc := range []struct {
		body string
		opts core.Options
	}{
		{`{"model":"mobilenetv2-0.5","platform":"a100","batch":8,"seed":3}`,
			core.Options{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 8, Seed: 3}},
		{graphBody(t, tinyServerGraph(), `,"seed":5`),
			core.Options{Graph: tinyServerGraph(), Platform: "a100", Batch: 2, Seed: 5}},
		{`{"model":"resnet-18","platform":"a100","mode":"measured","gpu_clock_mhz":1100,"measured_roofline":true}`,
			core.Options{Model: "resnet-18", Platform: "a100", Mode: core.ModeMeasured,
				Clocks: hardware.Clocks{GPUMHz: 1100}, MeasuredRoofline: true}},
	} {
		resp := postJSON(t, ts.URL+"/v1/profile", tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", tc.body, resp.StatusCode)
		}
		srv.FlushHistory(context.Background())
		newest, _, err := st.Query(histstore.Query{Limit: 1})
		if err != nil || len(newest) != 1 {
			t.Fatalf("%s: newest record: %v (err %v)", tc.body, newest, err)
		}
		r, err := core.Resolve(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		got := newest[0].Meta
		if got.Bound == "" || got.LatencyNS <= 0 {
			t.Errorf("%s: stored meta missing roofline fields: %+v", tc.body, got)
		}
		// Compare the identity alone: clear the stamps and measures.
		got.GitRev, got.TimestampNS, got.Bound, got.AttainableFLOPS, got.AttainedFLOPS, got.LatencyNS = "", 0, "", 0, 0, 0
		want := histstore.Meta{Model: r.Model, Platform: r.Plat.Key, DescriptorHash: r.Plat.DescriptorHash(),
			Backend: r.Backend, Batch: r.Batch, DType: r.DType.String(), Mode: string(r.Mode), Series: r.Series()}
		if got != want {
			t.Errorf("%s: stored identity\n got %+v\nwant %+v", tc.body, got, want)
		}
	}
}

// TestDriftEndpointComparesLikeWithLike is the batch probe end to end:
// resnet-50/a100 profiled at batch 1 under revA, then at batch 128 and
// batch 1 under revB, one descriptor throughout. The two batches are
// two series; batch 1 compares its two revisions and has not drifted.
func TestDriftEndpointComparesLikeWithLike(t *testing.T) {
	st := openTestStore(t)
	profile := func(rev string, batches ...int) {
		srv, ts := newTestServer(t, Config{History: st, GitRev: rev})
		for _, b := range batches {
			resp := postJSON(t, ts.URL+"/v1/profile", fmt.Sprintf(`{"model":"resnet-50","platform":"a100","batch":%d}`, b))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s batch %d: status %d", rev, b, resp.StatusCode)
			}
		}
		srv.FlushHistory(context.Background())
	}
	profile("revA", 1)
	profile("revB", 128, 1)

	_, ts := newTestServer(t, Config{History: st})
	resp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	var rep histstore.DriftReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DriftedKeys != 0 || len(rep.Keys) != 2 {
		t.Fatalf("drift = %d drifted of %d keys, want 0 of 2: %+v", rep.DriftedKeys, len(rep.Keys), rep.Keys)
	}
	for _, k := range rep.Keys {
		if (k.Batch != 1 && k.Batch != 128) || k.Series == "" {
			t.Fatalf("key = %+v, want a named series at batch 1 or 128", k)
		}
		// Only batch 1 was profiled under both revisions.
		if wantSingle := k.Batch == 128; k.SingleRevision != wantSingle {
			t.Errorf("batch %d: SingleRevision = %v, want %v", k.Batch, k.SingleRevision, wantSingle)
		}
	}
}

// TestDriftGaugeAnySeries: proofd_roofline_drift keeps its (model,
// platform) labels and reads 1 when any series of the pair drifted,
// whichever series the report lists last.
func TestDriftGaugeAnySeries(t *testing.T) {
	st := openTestStore(t)
	for i, bound := range []string{"compute", "memory"} {
		flip := driftSeedMeta("resnet-50", "a100", fmt.Sprintf("rev%d", i), "d1", bound, 10*i)
		flip.Series = "a-flips"
		seedHistory(t, st, flip, `{}`)
		stable := driftSeedMeta("resnet-50", "a100", fmt.Sprintf("rev%d", i), "d1", "compute", 10*i)
		stable.Series = "b-stable"
		seedHistory(t, st, stable, `{}`)
	}
	_, ts := newTestServer(t, Config{History: st})
	resp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	var rep histstore.DriftReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil || rep.DriftedKeys != 1 || len(rep.Keys) != 2 {
		t.Fatalf("drift = %d drifted of %d keys (err %v), want 1 of 2", rep.DriftedKeys, len(rep.Keys), err)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if want := `proofd_roofline_drift{model="resnet-50",platform="a100"} 1`; !strings.Contains(string(page), want) {
		t.Errorf("metrics page missing %s", want)
	}
}

// TestHistoryOnlyMissesPersisted: cache hits replay stored work and
// must not duplicate history records.
func TestHistoryOnlyMissesPersisted(t *testing.T) {
	st := openTestStore(t)
	srv, ts := newTestServer(t, Config{History: st})
	body := `{"model":"mobilenetv2-0.5","platform":"a100","batch":4}`
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/profile", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	srv.FlushHistory(context.Background())
	if _, total, _ := st.Query(histstore.Query{}); total != 1 {
		t.Fatalf("3 requests (1 miss + 2 hits) stored %d records, want 1", total)
	}
}

func TestHistoryQueryEndpoint(t *testing.T) {
	st := openTestStore(t)
	for i := 0; i < 12; i++ {
		model := "resnet-50"
		if i%3 == 0 {
			model = "bert-base"
		}
		seedHistory(t, st, driftSeedMeta(model, "a100", "rev1", "d1", "compute", i),
			fmt.Sprintf(`{"model":%q,"n":%d}`, model, i))
	}
	_, ts := newTestServer(t, Config{History: st})

	get := func(path string) (int, HistoryResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HistoryResponse
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, hr
	}

	if code, hr := get("/v1/history"); code != 200 || hr.Total != 12 || len(hr.Entries) != 12 {
		t.Fatalf("unfiltered = %d entries / total %d (status %d), want 12/12", len(hr.Entries), hr.Total, code)
	}
	if _, hr := get("/v1/history?model=resnet-50"); hr.Total != 8 {
		t.Fatalf("model filter total = %d, want 8", hr.Total)
	}
	// limit=0 is the default page, as no limit is: the store reads
	// Limit 0 as "everything", which must not bypass the 500 cap.
	if code, hr := get("/v1/history?limit=0"); code != 200 || hr.Limit != historyDefaultLimit || len(hr.Entries) != 12 {
		t.Fatalf("limit=0 = %d entries, limit %d (status %d), want 12 entries, limit %d",
			len(hr.Entries), hr.Limit, code, historyDefaultLimit)
	}
	if _, hr := get("/v1/history?model=resnet-50&limit=3&offset=6"); len(hr.Entries) != 2 || hr.Total != 8 {
		t.Fatalf("page = %d entries / total %d, want 2/8", len(hr.Entries), hr.Total)
	}
	// Newest first within a page.
	_, hr := get("/v1/history?model=resnet-50&limit=5")
	for i := 1; i < len(hr.Entries); i++ {
		if hr.Entries[i].TimestampNS > hr.Entries[i-1].TimestampNS {
			t.Fatal("history page not newest-first")
		}
	}
	since := time.Now().Add(-95 * time.Minute).Format(time.RFC3339)
	if _, hr := get("/v1/history?since=" + since); hr.Total >= 12 || hr.Total == 0 {
		t.Fatalf("since filter total = %d, want a proper subset", hr.Total)
	}

	for _, bad := range []string{
		"/v1/history?since=yesterday",
		"/v1/history?limit=-1",
		"/v1/history?offset=x",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != "bad_request" {
			t.Errorf("%s = %d %s, want 400 bad_request", bad, resp.StatusCode, env.Error.Code)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/history?id=99:99"); resp.StatusCode != 404 {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestHistoryUnreadableRecordIs500: GET /v1/history?id= answers 404
// unknown_record only for an ID that is malformed or names no stored
// record. A record the store holds but cannot read — here one payload
// byte flipped on disk, so its CRC no longer matches — is the
// service's failure: 500 internal.
func TestHistoryUnreadableRecordIs500(t *testing.T) {
	dir := t.TempDir()
	st, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	seedHistory(t, st, driftSeedMeta("resnet-50", "a100", "rev1", "d1", "compute", 0), `{"model":"resnet-50"}`)
	entries, _, err := st.Query(histstore.Query{})
	if err != nil || len(entries) != 1 {
		t.Fatalf("Query: %d entries, %v", len(entries), err)
	}
	_, ts := newTestServer(t, Config{History: st})
	status := func(id string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/history?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			return resp.StatusCode, ""
		}
		return resp.StatusCode, decodeEnvelope(t, resp).Error.Code
	}
	if code, _ := status(entries[0].ID); code != http.StatusOK {
		t.Fatalf("intact record: status %d, want 200", code)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	// The record's payload ends the segment; flip its last byte.
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	last[0] ^= 0xff
	if _, err := f.WriteAt(last, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, c := range []struct {
		id   string
		code int
		err  string
	}{
		{entries[0].ID, http.StatusInternalServerError, "internal"},
		{"99:99", http.StatusNotFound, "unknown_record"},
		{"zz", http.StatusNotFound, "unknown_record"},
	} {
		if code, env := status(c.id); code != c.code || env != c.err {
			t.Errorf("id %q: %d %s, want %d %s", c.id, code, env, c.code, c.err)
		}
	}
}

// TestDriftEndpointVerdictFlip is the issue's drift scenario end to
// end: two descriptor revisions of one platform whose verdict flips
// must be flagged by GET /v1/drift and surface as
// proofd_roofline_drift 1, while an unchanged pair reports no drift
// and gauges 0.
func TestDriftEndpointVerdictFlip(t *testing.T) {
	st := openTestStore(t)
	// resnet-50/a100: descriptor revision A compute-bound, B memory-bound.
	for i := 0; i < 4; i++ {
		seedHistory(t, st, driftSeedMeta("resnet-50", "a100", "rev1", "descA", "compute", i), `{"r":1}`)
	}
	for i := 10; i < 14; i++ {
		seedHistory(t, st, driftSeedMeta("resnet-50", "a100", "rev1", "descB", "memory", i), `{"r":2}`)
	}
	// bert-base/h100: two git revisions, verdict unchanged.
	for i := 0; i < 4; i++ {
		seedHistory(t, st, driftSeedMeta("bert-base", "h100", "rev1", "descC", "compute", i), `{"r":3}`)
	}
	for i := 10; i < 14; i++ {
		seedHistory(t, st, driftSeedMeta("bert-base", "h100", "rev2", "descC", "compute", i), `{"r":4}`)
	}
	_, ts := newTestServer(t, Config{History: st})

	resp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("drift status = %d", resp.StatusCode)
	}
	var rep histstore.DriftReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.DriftedKeys != 1 || len(rep.Keys) != 2 {
		t.Fatalf("drift report = %d drifted of %d keys, want 1 of 2", rep.DriftedKeys, len(rep.Keys))
	}
	for _, k := range rep.Keys {
		switch k.Model {
		case "resnet-50":
			if !k.Drifted || !k.VerdictFlipped {
				t.Errorf("resnet-50 = %+v, want verdict-flip drift", k)
			}
		case "bert-base":
			if k.Drifted || k.SingleRevision {
				t.Errorf("bert-base = %+v, want comparable and stable", k)
			}
		}
	}

	// The gauge mirrors the evaluation on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	page := string(metrics)
	wantDrifted := `proofd_roofline_drift{model="resnet-50",platform="a100"} 1`
	wantStable := `proofd_roofline_drift{model="bert-base",platform="h100"} 0`
	if !strings.Contains(page, wantDrifted) || !strings.Contains(page, wantStable) {
		t.Errorf("metrics page missing drift gauges:\nwant %s\nand  %s", wantDrifted, wantStable)
	}

	// Threshold validation.
	for _, bad := range []string{"0", "1.5", "x", "-0.1"} {
		r, err := http.Get(ts.URL + "/v1/drift?threshold=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if env := decodeEnvelope(t, r); r.StatusCode != 400 || env.Error.Code != "bad_request" {
			t.Errorf("threshold=%s = %d %s, want 400 bad_request", bad, r.StatusCode, env.Error.Code)
		}
	}
}

// TestHistoryDisabled: without a store the endpoints answer 404
// history_disabled, with no Retry-After: a missing store is the
// server's configuration, not an outage to wait out. The request ID is
// still echoed.
func TestHistoryDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/history", "/v1/drift"} {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("X-Request-ID", "client-id-7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Request-ID"); got != "client-id-7" {
			t.Errorf("%s X-Request-ID = %q, want the client's echoed", path, got)
		}
		if got := resp.Header.Get("Retry-After"); got != "" {
			t.Errorf("%s Retry-After = %q, want none", path, got)
		}
		if env := decodeEnvelope(t, resp); resp.StatusCode != 404 || env.Error.Code != "history_disabled" {
			t.Errorf("%s = %d %s, want 404 history_disabled", path, resp.StatusCode, env.Error.Code)
		}
	}
}

// TestHealthzStoreStatus: the health body reports the store's state.
func TestHealthzStoreStatus(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		var hr HealthzResponse
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		if hr.Status != "ok" || hr.Store.Enabled {
			t.Errorf("healthz = %+v, want ok with store disabled", hr)
		}
	})
	t.Run("enabled", func(t *testing.T) {
		st := openTestStore(t)
		srv, ts := newTestServer(t, Config{History: st})
		resp := postJSON(t, ts.URL+"/v1/profile",
			`{"model":"mobilenetv2-0.5","platform":"a100","batch":2}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		srv.FlushHistory(context.Background())

		var hr HealthzResponse
		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		if !hr.Store.Enabled || hr.Store.Records != 1 || hr.Store.Segments < 1 {
			t.Errorf("healthz store = %+v, want enabled with 1 record", hr.Store)
		}
		if hr.Store.LastAppendAgeSeconds < 0 || hr.Store.LastAppendAgeSeconds > 60 {
			t.Errorf("last_append_age_seconds = %v, want a small recent age", hr.Store.LastAppendAgeSeconds)
		}
	})
}

// TestBuildInfoMetric: the constant build-identity gauge is always on
// the metrics page, labeled with the Go version and the configured rev.
func TestBuildInfoMetric(t *testing.T) {
	_, ts := newTestServer(t, Config{GitRev: "deadbeef"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), `proofd_build_info{`) ||
		!strings.Contains(string(page), `git_rev="deadbeef"`) ||
		!strings.Contains(string(page), `go_version="go`) {
		t.Errorf("metrics page missing proofd_build_info with go_version/git_rev labels")
	}
}

// TestRequestIDEchoedEverywhere locks the header contract on the error
// paths the middleware table cannot reach: a client-supplied ID must
// come back on 200, 400, 404, 405, 413 and 429 alike.
func TestRequestIDEchoedEverywhere(t *testing.T) {
	release := make(chan struct{})
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		select {
		case <-release:
			return stubReport(opts), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv, ts := newTestServer(t, Config{
		Session:      sess,
		MaxInflight:  1,
		MaxQueue:     1,
		QueueWait:    30 * time.Second,
		MaxBodyBytes: 512,
	})
	do := func(method, path, body, id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Saturate the single slot and the one queue seat with distinct
	// slow profiles so the next one is shed with 429.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do("POST", "/v1/profile", fmt.Sprintf(`{"model":"resnet-50","platform":"a100","seed":%d}`, i), "occupy")
		}(i)
	}
	// Probe only once the slot and queue seat are provably taken —
	// probing earlier would put the probe itself in the queue for the
	// full QueueWait.
	waitFor(t, "admission saturated", func() bool {
		return srv.adm.inflight.Load() == 1 && srv.adm.queued.Load() == 1
	})
	r := do("POST", "/v1/profile", `{"model":"resnet-50","platform":"a100","seed":99}`, "rid-429")
	if r.StatusCode != 429 {
		t.Fatalf("saturated profile status = %d, want 429", r.StatusCode)
	}
	if got := r.Header.Get("X-Request-ID"); got != "rid-429" {
		t.Errorf("429 X-Request-ID = %q, want %q echoed", got, "rid-429")
	}
	close(release)
	wg.Wait()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"healthz 200", "GET", "/healthz", "", 200},
		{"bad json 400", "POST", "/v1/profile", `{`, 400},
		{"unknown model 404", "POST", "/v1/profile", `{"model":"nope","platform":"a100"}`, 404},
		{"unknown path 404", "GET", "/v1/zzz", "", 404},
		{"oversized body 413", "POST", "/v1/profile", `{"model":"` + strings.Repeat("x", 600) + `"}`, 413},
		{"history disabled 404", "GET", "/v1/history", "", 404},
		{"wrong method 405", "GET", "/v1/profile", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := "rid-" + tc.name
			resp := do(tc.method, tc.path, tc.body, id)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if got := resp.Header.Get("X-Request-ID"); got != id {
				t.Errorf("X-Request-ID = %q, want %q echoed", got, id)
			}
		})
	}
}

// TestHistoryBytesSurviveBufferReuse: every response is encoded into a
// pooled buffer that later responses reuse, while the history writer
// appends asynchronously. With 16 distinct profiles from 4 concurrent
// clients, every stored record must still be the exact body served for
// its request, so no pooled buffer reaches the writer uncopied.
func TestHistoryBytesSurviveBufferReuse(t *testing.T) {
	st := openTestStore(t)
	srv, ts := newTestServer(t, Config{History: st})
	const clients, perClient = 4, 4
	served := make([][]byte, clients*perClient) // by batch - 1
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				batch := c*perClient + i + 1
				resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
					strings.NewReader(fmt.Sprintf(`{"model":"mobilenetv2-0.5","platform":"a100","batch":%d}`, batch)))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("batch %d: status %d (err %v)", batch, resp.StatusCode, err)
					return
				}
				served[batch-1] = body
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := srv.FlushHistory(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, total, err := st.Query(histstore.Query{Model: "mobilenetv2-0.5", Limit: 100})
	if err != nil || total != len(served) {
		t.Fatalf("store holds %d records (err %v), want %d", total, err, len(served))
	}
	for _, e := range entries {
		stored, err := st.Get(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := served[e.Meta.Batch-1]; string(stored)+"\n" != string(want) {
			t.Errorf("batch %d: stored record differs from the body served\nserved: %.120s\nstored: %.120s", e.Meta.Batch, want, stored)
		}
	}
}
