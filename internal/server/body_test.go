package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"proof/internal/graph"
)

// TestEdgeBodyContract pins the status and error code proofd answers
// for each body shape its single-pass decoder has to get right. Rows
// marked changed answered differently before bodies were decoded in
// one strict pass; CHANGES.md lists them.
func TestEdgeBodyContract(t *testing.T) {
	const limit = 4096
	_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	overValue := `{"model":"` + strings.Repeat("x", limit) + `","platform":"a100"}`
	cases := []struct {
		name       string
		path       string
		body       string
		chunked    bool // send without Content-Length
		wantStatus int
		wantCode   string // "" = success
	}{
		{"case-folded keys", "/v1/profile", `{"Model":"resnet-18","PLATFORM":"a100"}`, false, 200, ""},
		{"escaped key", "/v1/profile", `{"model":"resnet-18","pl\u0061tform":"a100"}`, false, 200, ""},
		{"batch null", "/v1/profile", `{"model":"resnet-18","platform":"a100","batch":null}`, false, 200, ""},
		{"batch 1.0", "/v1/profile", `{"model":"resnet-18","platform":"a100","batch":1.0}`, false, 400, "bad_request"},
		{"batch 1e0", "/v1/profile", `{"model":"resnet-18","platform":"a100","batch":1e0}`, false, 400, "bad_request"},
		{"seed -1", "/v1/profile", `{"model":"resnet-18","platform":"a100","seed":-1}`, false, 400, "bad_request"},
		{"graph array", "/v1/profile", `{"platform":"a100","graph":[]}`, false, 400, "bad_request"},
		{"graph string", "/v1/profile", `{"platform":"a100","graph":"x"}`, false, 400, "bad_request"},
		// changed: 200 with an all-zero report
		{"graph empty object", "/v1/profile", `{"platform":"a100","graph":{}}`, false, 400, "invalid_model"},
		// changed: 200 with an all-zero report
		{"graph null", "/v1/profile", `{"platform":"a100","graph":null}`, false, 400, "bad_request"},
		// changed: 400 "model and graph are mutually exclusive"
		{"graph null beside model", "/v1/profile", `{"model":"resnet-18","platform":"a100","graph":null}`, false, 200, ""},
		// changed: 200, the last platform won
		{"duplicate platform", "/v1/profile", `{"model":"resnet-18","platform":"nope","platform":"a100"}`, false, 400, "bad_request"},
		// changed: 200, the last platform won
		{"duplicate folded platform", "/v1/profile", `{"model":"resnet-18","platform":"a100","PLATFORM":"a100"}`, false, 400, "bad_request"},
		// changed: 200, Decoder.More reports false before a closing delimiter
		{"trailing brace", "/v1/profile", `{"model":"resnet-50","platform":"a100"} }`, false, 400, "bad_request"},
		// changed: 200, as above
		{"trailing bracket", "/v1/profile", `{"model":"resnet-50","platform":"a100"} ]`, false, 400, "bad_request"},
		{"trailing value", "/v1/profile", `{"model":"resnet-50","platform":"a100"} {}`, false, 400, "bad_request"},
		{"trailing space", "/v1/profile", "{\"model\":\"resnet-18\",\"platform\":\"a100\"} \n", false, 200, ""},
		{"null body", "/v1/profile", `null`, false, 400, "bad_request"},
		{"empty body", "/v1/profile", ``, false, 400, "bad_request"},
		{"value over the limit", "/v1/profile", overValue, false, 413, "payload_too_large"},
		{"value over the limit, chunked", "/v1/profile", overValue, true, 413, "payload_too_large"},
		// changed: 200, the value ended inside the limit
		{"one byte over the limit", "/v1/profile", pad(`{"model":"resnet-18","platform":"a100"}`, limit+1), false, 413, "payload_too_large"},
		// changed: 200, as above
		{"one byte over the limit, chunked", "/v1/profile", pad(`{"model":"resnet-18","platform":"a100"}`, limit+1), true, 413, "payload_too_large"},
		{"at the limit", "/v1/profile", pad(`{"model":"resnet-18","platform":"a100"}`, limit), false, 200, ""},
		// changed: 200, as for /v1/profile
		{"sweep trailing brace", "/v1/sweep", `{"model":"resnet-50"} }`, false, 400, "bad_request"},
		// changed: 200, as for /v1/profile
		{"sweep trailing bracket", "/v1/sweep", `{"model":"resnet-50"} ]`, false, 400, "bad_request"},
		// changed: 200, the last model won
		{"sweep duplicate model", "/v1/sweep", `{"model":"nope","model":"resnet-50"}`, false, 400, "bad_request"},
		{"sweep empty body", "/v1/sweep", ``, false, 400, "bad_request"},
		{"sweep unknown field", "/v1/sweep", `{"model":"resnet-50","bogus":1}`, false, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader = strings.NewReader(tc.body)
			if tc.chunked {
				body = struct{ io.Reader }{body} // hides the length
			}
			resp, err := http.Post(ts.URL+tc.path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, b)
			}
			if tc.wantCode == "" {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return
			}
			if env := decodeEnvelope(t, resp); env.Error.Code != tc.wantCode {
				t.Errorf("envelope code = %q, want %q (message %q)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
		})
	}
}

// TestEmptyInlineGraphRefused: an inline graph with nothing to profile
// is a defect of the request, never a 200 with an all-zero report that
// the cache and the history store would keep. An empty object is a
// graph without nodes or outputs (400 invalid_model, one empty_graph
// defect); null is no graph at all, as null is no value for every
// other field.
func TestEmptyInlineGraphRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, g := range []string{`{}`, `{"name":"g","nodes":[],"tensors":{}}`} {
		resp := postJSON(t, ts.URL+"/v1/profile", `{"platform":"a100","graph":`+g+`}`)
		if resp.StatusCode != 400 {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("graph %s: status = %d, want 400 (body %s)", g, resp.StatusCode, b)
		}
		env := decodeEnvelope(t, resp)
		details, _ := json.Marshal(env.Error.Details)
		var defects []*graph.ValidationError
		if err := json.Unmarshal(details, &defects); err != nil || env.Error.Code != "invalid_model" ||
			len(defects) != 1 || defects[0].Code != graph.ErrEmptyGraph {
			t.Fatalf("graph %s: code %q, details %s; want invalid_model with one %s defect",
				g, env.Error.Code, details, graph.ErrEmptyGraph)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/profile", `{"platform":"a100","graph":null}`)
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != 400 || env.Error.Message != "model or graph is required" {
		t.Fatalf("graph null: status %d, message %q; want 400 \"model or graph is required\"",
			resp.StatusCode, env.Error.Message)
	}
}
