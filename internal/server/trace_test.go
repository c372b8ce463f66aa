package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestProfileTraceEnvelope asserts POST /v1/profile?trace=1 returns the
// {report, trace} envelope with a Chrome trace-event document, while
// the untraced response shape stays a bare report.
func TestProfileTraceEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/profile?trace=1", `{"model":"mobilenetv2-0.5","platform":"a100","batch":2}`)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Report struct {
			Model string `json:"model"`
		} `json:"report"`
		Trace struct {
			TraceEvents []struct {
				Name  string `json:"name"`
				Phase string `json:"ph"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Report.Model != "mobilenetv2-0.5" {
		t.Errorf("report.model = %q", env.Report.Model)
	}
	if env.Trace.DisplayTimeUnit != "ms" {
		t.Errorf("trace.displayTimeUnit = %q", env.Trace.DisplayTimeUnit)
	}
	stages := map[string]bool{}
	for _, ev := range env.Trace.TraceEvents {
		if ev.Phase == "X" {
			stages[ev.Name] = true
		}
	}
	for _, want := range []string{"session", "pipeline", "model_build", "analysis", "roofline"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, stages)
		}
	}

	// Untraced request: bare report at the top level, no trace key.
	resp = postJSON(t, ts.URL+"/v1/profile", `{"model":"mobilenetv2-0.5","platform":"a100","batch":2}`)
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw["trace"]; has {
		t.Error("untraced response carries a trace key")
	}
	if _, has := raw["model"]; !has {
		t.Error("untraced response is not a bare report")
	}
}

// TestDebugTracesRing asserts the trace ring serves the most recent
// traces newest-first and evicts beyond its capacity — bounded memory
// no matter how much traffic the service sees.
func TestDebugTracesRing(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRingSize: 2})
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"mobilenetv2-0.5","platform":"a100","batch":2}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Capacity != 2 {
		t.Errorf("capacity = %d, want 2", tr.Capacity)
	}
	if tr.Total != 3 {
		t.Errorf("total = %d, want 3", tr.Total)
	}
	if len(tr.Traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(tr.Traces))
	}
	for i, tc := range tr.Traces {
		if tc.SpanCount == 0 || len(tc.Spans) != tc.SpanCount {
			t.Errorf("trace %d: span_count=%d len(spans)=%d", i, tc.SpanCount, len(tc.Spans))
		}
		found := false
		for _, s := range tc.Spans {
			if s.Name == "session" {
				found = true
			}
		}
		if !found {
			t.Errorf("trace %d has no session span", i)
		}
	}
}

// TestPprofDisabledByDefault: the public mux must 404 the pprof paths;
// only the opt-in DebugHandler (proofd -debug-addr) serves them.
func TestPprofDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public /debug/pprof/ status = %d, want 404", resp.StatusCode)
	}

	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()
	resp, err = http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug mux /debug/pprof/ status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "profile") {
		t.Errorf("pprof index looks wrong: %s", body)
	}
}

// TestStageMetricsExposition: after traffic, /metrics carries the
// per-stage latency histograms and the session hit-ratio gauge fed by
// the shared registry.
func TestStageMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ { // second request is a cache hit
		resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"mobilenetv2-0.5","platform":"a100","batch":2}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`proofd_stage_duration_seconds_count{stage="pipeline"} 1`,
		`proofd_stage_duration_seconds_count{stage="session"} 2`,
		`proofd_stage_duration_seconds_count{stage="request"} 2`,
		"proofd_session_hits_total 1",
		"proofd_session_misses_total 1",
		"proofd_session_cache_hit_ratio 0.5",
		"proofd_session_cache_capacity 1024",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, text)
		}
	}
}

// TestInlineGraphEdgeSpans: an inline-graph request records a decode
// span (the body read and decoded in one pass, sized in bytes) and an
// admit span, both children of the request span, in the ?trace=1
// response and in the trace ring.
func TestInlineGraphEdgeSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := graphBody(t, tinyServerGraph(), "")
	resp := postJSON(t, ts.URL+"/v1/profile?trace=1", body)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var env struct {
		Trace struct {
			TraceEvents []struct {
				Name  string            `json:"name"`
				Phase string            `json:"ph"`
				Args  map[string]string `json:"args"`
			} `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	args := map[string]map[string]string{}
	for _, ev := range env.Trace.TraceEvents {
		if ev.Phase == "X" {
			args[ev.Name] = ev.Args
		}
	}
	decode, admit := args["decode"], args["admit"]
	if decode == nil || admit == nil {
		t.Fatalf("trace lacks a decode or admit span: %v", args)
	}
	if want := strconv.Itoa(len(body)); decode["bytes"] != want {
		t.Errorf("decode bytes = %q, want %s", decode["bytes"], want)
	}
	if admit["nodes"] != "2" {
		t.Errorf("admit nodes = %q, want 2", admit["nodes"])
	}

	traces, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer traces.Body.Close()
	var tr TracesResponse
	if err := json.NewDecoder(traces.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(tr.Traces))
	}
	parent := map[string]uint64{}
	var root uint64
	for _, s := range tr.Traces[0].Spans {
		parent[s.Name] = s.ParentID
		if s.Name == "request" {
			root = s.ID
		}
	}
	if root == 0 || parent["decode"] != root || parent["admit"] != root {
		t.Errorf("decode and admit parents = %d, %d; want the request span %d", parent["decode"], parent["admit"], root)
	}
}

// TestMarshalSpan: a profile response is encoded under a "marshal"
// span, a child of the request span, whose bytes attr is the length of
// the body without its trailing newline; /metrics attributes the stage.
func TestMarshalSpan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"mobilenetv2-0.5","platform":"a100","batch":2}`)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status = %d (err %v): %.200s", resp.StatusCode, err, body)
	}

	tr := debugTraces(t, ts.URL)
	if len(tr.Traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(tr.Traces))
	}
	var root, parent uint64
	bytesAttr := ""
	for _, s := range tr.Traces[0].Spans {
		switch s.Name {
		case "request":
			root = s.ID
		case "marshal":
			parent = s.ParentID
			for _, a := range s.Attrs {
				if a.Key == "bytes" {
					bytesAttr = a.Value
				}
			}
		}
	}
	if root == 0 || parent != root {
		t.Errorf("marshal span parent = %d, want the request span %d", parent, root)
	}
	if want := strconv.Itoa(len(body) - 1); bytesAttr != want {
		t.Errorf("marshal bytes = %q, want %s (the body without its newline)", bytesAttr, want)
	}
	if page := scrapeMetrics(t, ts.URL); !strings.Contains(page, `proofd_stage_duration_seconds_count{stage="marshal"} 1`) {
		t.Errorf("metrics exposition lacks the marshal stage:\n%s", page)
	}
}

// debugTraces fetches the server's trace ring.
func debugTraces(t *testing.T, baseURL string) TracesResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}
