package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/faults"
	"proof/internal/hardware"
	"proof/internal/profsession"
	"proof/internal/roofline"
)

// quietLogger drops the per-request log lines during tests.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// newTestServer starts an httptest server around a Server with the
// given config (logger forced quiet) and returns both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = quietLogger()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// stubReport is the minimal report a stub profiler returns.
func stubReport(opts core.Options) *core.Report {
	return &core.Report{
		Model:        opts.Model,
		Platform:     opts.Platform,
		Batch:        opts.Batch,
		TotalLatency: time.Millisecond,
		Throughput:   1000,
	}
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeEnvelope(t *testing.T, resp *http.Response) ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not an envelope: %v", err)
	}
	return env
}

// TestHandlers is the table-driven endpoint contract: status codes and
// error-envelope codes for success, bad input, unknown entities, wrong
// methods and unknown paths.
func TestHandlers(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string // error envelope code ("" = success expected)
	}{
		{"profile success", "POST", "/v1/profile",
			`{"model":"mobilenetv2-0.5","platform":"a100","batch":8,"seed":1}`, 200, ""},
		{"profile measured mode", "POST", "/v1/profile",
			`{"model":"resnet-18","platform":"a100","batch":4,"mode":"measured"}`, 200, ""},
		{"profile unknown model", "POST", "/v1/profile",
			`{"model":"nope","platform":"a100"}`, 404, "unknown_model"},
		{"profile unknown platform", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"nope"}`, 404, "unknown_platform"},
		{"profile unknown backend", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"a100","backend":"nope"}`, 404, "unknown_backend"},
		{"profile missing model", "POST", "/v1/profile",
			`{"platform":"a100"}`, 400, "bad_request"},
		{"profile missing platform", "POST", "/v1/profile",
			`{"model":"resnet-50"}`, 400, "bad_request"},
		{"profile malformed JSON", "POST", "/v1/profile",
			`{"model":`, 400, "bad_request"},
		{"profile unknown field", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"a100","bogus":1}`, 400, "bad_request"},
		{"profile trailing garbage", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"a100"} trailing`, 400, "bad_request"},
		{"profile bad mode", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"a100","mode":"psychic"}`, 400, "bad_request"},
		{"profile bad dtype", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"a100","dtype":"fp7"}`, 400, "bad_request"},
		{"profile negative batch", "POST", "/v1/profile",
			`{"model":"resnet-50","platform":"a100","batch":-1}`, 400, "bad_request"},
		{"profile clocks above the maxima", "POST", "/v1/profile",
			`{"model":"resnet-18","platform":"orin-nx","gpu_clock_mhz":5000,"emc_clock_mhz":20000}`, 400, "bad_request"},
		{"profile CPU clusters above the maximum", "POST", "/v1/profile",
			`{"model":"resnet-18","platform":"orin-nx","cpu_clusters":1000}`, 400, "bad_request"},
		{"profile unsupported family", "POST", "/v1/profile",
			`{"model":"distilbert","platform":"npu3720"}`, 422, "unsupported"},
		{"profile wrong method", "GET", "/v1/profile", "", 405, "method_not_allowed"},
		{"sweep success", "POST", "/v1/sweep",
			`{"model":"mobilenetv2-0.5"}`, 200, ""},
		{"sweep unknown model", "POST", "/v1/sweep",
			`{"model":"nope"}`, 404, "unknown_model"},
		{"sweep missing model", "POST", "/v1/sweep", `{}`, 400, "bad_request"},
		{"sweep bad mode", "POST", "/v1/sweep",
			`{"model":"resnet-50","mode":"psychic"}`, 400, "bad_request"},
		{"sweep wrong method", "GET", "/v1/sweep", "", 405, "method_not_allowed"},
		{"models success", "GET", "/v1/models", "", 200, ""},
		{"models wrong method", "POST", "/v1/models", `{}`, 405, "method_not_allowed"},
		{"platforms success", "GET", "/v1/platforms", "", 200, ""},
		{"platforms wrong method", "DELETE", "/v1/platforms", "", 405, "method_not_allowed"},
		{"history without store", "GET", "/v1/history", "", 404, "history_disabled"},
		{"history wrong method", "POST", "/v1/history", `{}`, 405, "method_not_allowed"},
		{"drift without store", "GET", "/v1/drift", "", 404, "history_disabled"},
		{"drift wrong method", "PUT", "/v1/drift", `{}`, 405, "method_not_allowed"},
		{"healthz success", "GET", "/healthz", "", 200, ""},
		{"metrics success", "GET", "/metrics", "", 200, ""},
		{"metrics wrong method", "POST", "/metrics", `{}`, 405, "method_not_allowed"},
		{"unknown path", "GET", "/v1/nope", "", 404, "not_found"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tt.wantStatus {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tt.wantStatus, body)
			}
			if resp.Header.Get("X-Request-ID") == "" {
				t.Error("missing X-Request-ID header")
			}
			if tt.wantCode == "" {
				resp.Body.Close()
				return
			}
			env := decodeEnvelope(t, resp)
			if env.Error.Code != tt.wantCode {
				t.Errorf("envelope code = %q, want %q (message %q)", env.Error.Code, tt.wantCode, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Error("envelope message is empty")
			}
			if tt.wantStatus == 405 && resp.Header.Get("Allow") == "" {
				t.Error("405 response missing Allow header")
			}
		})
	}
}

// TestProfileMatchesCore locks the service to the library: the
// /v1/profile body must be byte-identical to the JSON of core.ProfileCtx
// with the same options.
func TestProfileMatchesCore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/profile",
		`{"model":"resnet-18","platform":"a100","batch":4,"seed":7}`)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	want, err := core.ProfileCtx(context.Background(), core.Options{
		Model: "resnet-18", Platform: "a100", Batch: 4, Seed: 7,
		Clocks: hardware.Clocks{CPUClusters: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("service response differs from core.ProfileCtx output\nservice: %.200s\nlibrary: %.200s", got, wantJSON)
	}
}

// TestProfileCacheHeader asserts the per-request cache outcome header:
// first request a miss, repeat a hit.
func TestProfileCacheHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"model":"mobilenetv2-0.5","platform":"a100","batch":4}`
	r1 := postJSON(t, ts.URL+"/v1/profile", body)
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if c := r1.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", c)
	}
	r2 := postJSON(t, ts.URL+"/v1/profile", body)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if c := r2.Header.Get("X-Cache"); c != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", c)
	}
}

// TestDefaultSpellingsShareEntry: a request that names a100's own
// batch, dtype, backend and CPU cluster count is the same experiment as
// one that leaves them to the platform, so it is served from the first
// request's cache entry with byte-identical bytes.
func TestDefaultSpellingsShareEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var bodies [2][]byte
	for i, c := range []struct{ body, cache string }{
		{`{"model":"resnet-18","platform":"a100","seed":3}`, "miss"},
		{`{"model":"resnet-18","platform":"a100","seed":3,"batch":128,"dtype":"fp16","backend":"trtsim","cpu_clusters":1}`, "hit"},
	} {
		resp := postJSON(t, ts.URL+"/v1/profile", c.body)
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d, err %v", i, resp.StatusCode, err)
		}
		if got := resp.Header.Get("X-Cache"); got != c.cache {
			t.Errorf("request %d: X-Cache = %q, want %q", i, got, c.cache)
		}
		bodies[i] = b
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("the two spellings answered different bytes")
	}
}

// TestSweepBody sanity-checks the sweep payload: one row per platform,
// supported rows ranked by descending throughput.
func TestSweepBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"model":"mobilenetv2-0.5"}`)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(hardware.List()) {
		t.Fatalf("results = %d, want %d", len(sr.Results), len(hardware.List()))
	}
	last := -1.0
	for _, r := range sr.Results {
		if !r.Supported {
			continue
		}
		if last >= 0 && r.Throughput > last {
			t.Errorf("sweep results not sorted by throughput: %v after %v", r.Throughput, last)
		}
		last = r.Throughput
	}
}

// TestSweepPlatformFailureIsNotUnsupported asserts that only
// core.ErrUnsupported makes a sweep row unsupported: a platform that
// fails transiently fails the sweep with 503 upstream_transient, and
// once that failure opens its circuit, with 503 circuit_open. Neither
// may answer 200 claiming the platform cannot run the model.
func TestSweepPlatformFailureIsNotUnsupported(t *testing.T) {
	sess := profsession.NewWithConfig(profsession.Config{
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if opts.Platform == "a100" {
				return nil, faults.Transient(errors.New("device reset"))
			}
			return stubReport(opts), nil
		},
		Breaker: profsession.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	for _, want := range []string{"upstream_transient", "circuit_open"} {
		resp := postJSON(t, ts.URL+"/v1/sweep", `{"model":"resnet-50"}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status = %d, want 503", want, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", want)
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != want {
			t.Errorf("code = %q, want %s", env.Error.Code, want)
		}
	}
}

// TestOversizedBody asserts the body cap answers 413 with the envelope.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := `{"model":"resnet-50","platform":"a100","backend":"` + strings.Repeat("x", 1024) + `"}`
	resp := postJSON(t, ts.URL+"/v1/profile", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "payload_too_large" {
		t.Errorf("envelope code = %q", env.Error.Code)
	}
}

// TestRequestTimeout asserts the per-request budget is threaded into
// the pipeline context: a profiler that never finishes turns into 504.
func TestRequestTimeout(t *testing.T) {
	sess := profsession.NewWithProfiler(0, func(ctx context.Context, opts core.Options) (*core.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t, Config{Session: sess, RequestTimeout: 50 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet-50","platform":"a100"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "timeout" {
		t.Errorf("envelope code = %q, want timeout", env.Error.Code)
	}
}

// TestMetricsExposition asserts the metrics page carries request
// counters, histograms and the session gauges after some traffic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r := postJSON(t, ts.URL+"/v1/profile", `{"model":"mobilenetv2-0.5","platform":"a100","batch":4}`)
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	r = postJSON(t, ts.URL+"/v1/profile", `{"model":"nope","platform":"a100"}`)
	io.Copy(io.Discard, r.Body)
	r.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`proofd_requests_total{path="/v1/profile",code="200"} 1`,
		`proofd_requests_total{path="/v1/profile",code="404"} 1`,
		`proofd_request_duration_seconds_count{path="/v1/profile"} 2`,
		"proofd_session_misses_total 1",
		"proofd_session_cache_size 1",
		"proofd_inflight_profiles 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, text)
		}
	}
}

// TestNonFiniteReportAnswers500: a report that JSON cannot carry (a
// non-finite throughput, ceiling or point rate) answers 500 internal
// with the encoder's reason, and the marshal span records the failure.
func TestNonFiniteReportAnswers500(t *testing.T) {
	for name, spoil := range map[string]func(*core.Report){
		"throughput": func(r *core.Report) { r.Throughput = math.Inf(1) },
		"ceiling":    func(r *core.Report) { r.Roofline.PeakBW = math.NaN() },
		"point":      func(r *core.Report) { r.Layers = []core.LayerReport{{Point: roofline.Point{Share: math.NaN()}}} },
	} {
		t.Run(name, func(t *testing.T) {
			sess := profsession.NewWithConfig(profsession.Config{
				Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
					rep := stubReport(opts)
					spoil(rep)
					return rep, nil
				},
			})
			_, ts := newTestServer(t, Config{Session: sess})
			resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet-50","platform":"a100"}`)
			env := decodeEnvelope(t, resp)
			if resp.StatusCode != 500 || env.Error.Code != "internal" ||
				!strings.HasPrefix(env.Error.Message, "encoding report failed: ") || !strings.Contains(env.Error.Message, "non-finite") {
				t.Fatalf("= %d %s %q, want 500 internal: encoding report failed: ... non-finite ...", resp.StatusCode, env.Error.Code, env.Error.Message)
			}
			spans := debugTraces(t, ts.URL).Traces[0].Spans
			failed := false
			for _, s := range spans {
				failed = failed || s.Name == "marshal" && s.Error != ""
			}
			if !failed {
				t.Errorf("no marshal span records the failure: %+v", spans)
			}
		})
	}
}
