package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/models"
	"proof/internal/profsession"
)

// tinyServerGraph builds a minimal valid model for inline-graph
// requests: x -> Relu -> h -> Relu -> y.
func tinyServerGraph() *graph.Graph {
	g := graph.New("tiny-inline")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 16, 16}})
	g.AddTensor(&graph.Tensor{Name: "h", DType: graph.Float32})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "relu0", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"h"}})
	g.AddNode(&graph.Node{Name: "relu1", OpType: "Relu", Inputs: []string{"h"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	return g
}

// graphBody wraps a graph into a /v1/profile request body.
func graphBody(t *testing.T, g *graph.Graph, extra string) string {
	t.Helper()
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return `{"platform":"a100","batch":2` + extra + `,"graph":` + string(raw) + `}`
}

// TestProfileInlineGraph profiles a model supplied in the request body
// instead of by zoo key, and asserts the content-addressed cache still
// works for it.
func TestProfileInlineGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := graphBody(t, tinyServerGraph(), "")

	r1 := postJSON(t, ts.URL+"/v1/profile", body)
	defer r1.Body.Close()
	if r1.StatusCode != 200 {
		b, _ := io.ReadAll(r1.Body)
		t.Fatalf("status = %d, body %s", r1.StatusCode, b)
	}
	if c := r1.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("first inline request X-Cache = %q, want miss", c)
	}
	var rep struct {
		Model string `json:"model"`
		Batch int    `json:"batch"`
	}
	if err := json.NewDecoder(r1.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Model != "tiny-inline" {
		t.Errorf("report model = %q, want graph name", rep.Model)
	}
	if rep.Batch != 2 {
		t.Errorf("report batch = %d, want 2", rep.Batch)
	}

	r2 := postJSON(t, ts.URL+"/v1/profile", body)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if c := r2.Header.Get("X-Cache"); c != "hit" {
		t.Errorf("repeated inline request X-Cache = %q, want hit", c)
	}
}

// TestProfileInlineGraphRejected locks the admission contract for
// corrupt inline graphs: 400 with code invalid_model and the typed
// defect list in details, produced before any pipeline work runs.
func TestProfileInlineGraphRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	dangling := tinyServerGraph()
	dangling.Nodes[0].Inputs[0] = "ghost"

	cyclic := tinyServerGraph()
	cyclic.Nodes[0].Inputs[0] = "y" // y -> relu0 -> h -> relu1 -> y

	unusedParam := tinyServerGraph()
	unusedParam.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{8}, Param: true})

	badShapes := graph.New("badmm")
	badShapes.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 4}})
	badShapes.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{5, 6}, Param: true})
	badShapes.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	badShapes.AddNode(&graph.Node{Name: "mm", OpType: "MatMul", Inputs: []string{"x", "w"}, Outputs: []string{"y"}})
	badShapes.Inputs = []string{"x"}
	badShapes.Outputs = []string{"y"}

	cases := []struct {
		name     string
		graph    *graph.Graph
		wantCode graph.ValidationCode // "" = no structured details expected
	}{
		{"dangling tensor", dangling, graph.ErrDanglingTensor},
		{"cycle", cyclic, graph.ErrCycle},
		{"unused param", unusedParam, graph.ErrUnusedParam},
		{"shape inference failure", badShapes, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/profile", graphBody(t, tc.graph, ""))
			if resp.StatusCode != 400 {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, b)
			}
			env := decodeEnvelope(t, resp)
			if env.Error.Code != "invalid_model" {
				t.Fatalf("envelope code = %q, want invalid_model", env.Error.Code)
			}
			if tc.wantCode == "" {
				return
			}
			raw, err := json.Marshal(env.Error.Details)
			if err != nil {
				t.Fatal(err)
			}
			var defects []*graph.ValidationError
			if err := json.Unmarshal(raw, &defects); err != nil {
				t.Fatalf("details are not a defect list: %v (%s)", err, raw)
			}
			found := false
			for _, d := range defects {
				if d.Code == tc.wantCode {
					found = true
				}
			}
			if !found {
				t.Errorf("details %s missing defect code %q", raw, tc.wantCode)
			}
		})
	}
}

// TestProfileGraphRequestShape covers the request-shape rules around
// the graph field itself.
func TestProfileGraphRequestShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	valid, err := json.Marshal(tinyServerGraph())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"model and graph together", `{"model":"resnet-18","platform":"a100","graph":` + string(valid) + `}`, "bad_request"},
		{"neither model nor graph", `{"platform":"a100"}`, "bad_request"},
		{"graph with unknown field", `{"platform":"a100","graph":{"name":"x","bogus":1}}`, "bad_request"},
		{"graph of wrong JSON type", `{"platform":"a100","graph":[1,2]}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/profile", tc.body)
			if resp.StatusCode != 400 {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, b)
			}
			env := decodeEnvelope(t, resp)
			if env.Error.Code != tc.wantCode {
				t.Errorf("envelope code = %q, want %q (message %q)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
		})
	}

	// An inline graph skips the model-family support gate (there is no
	// zoo entry to consult) but still validates the platform.
	t.Run("unknown platform still checked", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/profile",
			`{"platform":"nope","graph":`+string(valid)+`}`)
		if resp.StatusCode != 404 {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		if env.Error.Code != "unknown_platform" {
			t.Errorf("envelope code = %q", env.Error.Code)
		}
	})
}

// TestBatchOnlyGraphDefectIsCallerError: an inline graph that passes the
// edge's shape gate at its posted batch but whose shapes do not compose
// at the requested batch (x[1,4,8] -> Reshape[1,32] -> Relu at batch 8)
// is a defect of the caller's graph, not a service failure. Every such
// request answers 400 invalid_model with a shape_inference defect, the
// (graph, platform) circuit never opens, and a valid request for the
// same graph is still served. Every nameless inline graph shares the
// breaker key "inline|<platform>", so counting these as failures would
// let one client block them all.
func TestBatchOnlyGraphDefectIsCallerError(t *testing.T) {
	sess := profsession.NewWithConfig(profsession.Config{
		Breaker: profsession.BreakerConfig{Threshold: 5, Cooldown: 10 * time.Second},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	g := graph.New("fixed-reshape")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 4, 8}})
	g.AddTensor(&graph.Tensor{Name: "r", DType: graph.Float32})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "reshape", OpType: "Reshape", Inputs: []string{"x"}, Outputs: []string{"r"},
		Attrs: graph.Attrs{graph.IntsAttr("shape", 1, 32)}})
	g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"r"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body := func(batch, seed int) string {
		return fmt.Sprintf(`{"platform":"a100","batch":%d,"seed":%d,"graph":%s}`, batch, seed, raw)
	}

	for i := 0; i < 7; i++ {
		resp := postJSON(t, ts.URL+"/v1/profile", body(8, i))
		if resp.StatusCode != 400 {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("request %d at batch 8: status = %d, want 400 (body %s)", i, resp.StatusCode, b)
		}
		env := decodeEnvelope(t, resp)
		if env.Error.Code != "invalid_model" {
			t.Fatalf("request %d: envelope code = %q, want invalid_model", i, env.Error.Code)
		}
		raw, _ := json.Marshal(env.Error.Details)
		var defects []*graph.ValidationError
		if err := json.Unmarshal(raw, &defects); err != nil || len(defects) != 1 || defects[0].Code != graph.ErrShapeInference {
			t.Fatalf("request %d: details %s, want one %s defect", i, raw, graph.ErrShapeInference)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/profile", body(1, 0))
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("valid batch-1 request after the defects: status = %d, want 200 (body %s)", resp.StatusCode, b)
	}
}

// TestOverflowProbesAnswer400: a request whose sizes or costs overflow
// int64 answers a typed 400, never a report with wrapped figures. A
// posted shape that overflows on its own is a bad_tensor defect at
// admission; one that overflows only at the requested batch, in a
// tensor or in a cost, is a shape_inference defect, as is a parameter
// count whose tensors each fit but whose sum does not, and so is a
// Conv whose hardware FLOP, padded to the platform's tiles, overflows
// where its model FLOP does not, in measured mode or predicted (the
// simulated compute time reads the same figure). Each probe is sent one
// more time than the breaker's threshold, and no circuit opens.
func TestOverflowProbesAnswer400(t *testing.T) {
	const threshold = 5
	sess := profsession.NewWithConfig(profsession.Config{
		Breaker: profsession.BreakerConfig{Threshold: threshold, Cooldown: 10 * time.Second},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	encode := func(g *graph.Graph) string {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	relu := func(shape ...int) string {
		g := graph.New("relu")
		g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: shape})
		g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32, Shape: shape})
		g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}})
		g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
		return encode(g)
	}
	// Two int8 tables of 2^62 rows: each fits in int64, their sum does
	// not, and a Gather charges only the rows it reads.
	gathers := func() string {
		g := graph.New("gathers")
		g.AddTensor(&graph.Tensor{Name: "ids", DType: graph.Int64, Shape: graph.Shape{1}})
		for _, s := range []string{"a", "b"} {
			g.AddTensor(&graph.Tensor{Name: "table_" + s, DType: graph.Int8, Shape: graph.Shape{1 << 62}, Param: true})
			g.AddTensor(&graph.Tensor{Name: "rows_" + s, DType: graph.Int8, Shape: graph.Shape{1}})
			g.AddNode(&graph.Node{Name: "gather_" + s, OpType: "Gather", Inputs: []string{"table_" + s, "ids"}, Outputs: []string{"rows_" + s}})
			g.Outputs = append(g.Outputs, "rows_"+s)
		}
		g.Inputs = []string{"ids"}
		return encode(g)
	}
	conv := func(x, w graph.Shape, attrs ...graph.Attribute) string {
		g := graph.New("conv")
		g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: x})
		g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: w, Param: true})
		g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
		g.AddNode(&graph.Node{Name: "conv", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"}, Attrs: graph.MakeAttrs(attrs...)})
		g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
		return encode(g)
	}
	// A 1x1 Conv whose model FLOP fits but whose hardware FLOP, padded
	// to 2^20 rows x 32 channels x 2^39+16, is 2^64 + 2^29; and a 3x3
	// depth-wise Conv whose model FLOP, 9 x 2^59, fits but whose
	// hardware FLOP, 3.2 times that, does not.
	const cin = 1<<39 + 16
	padded := conv(graph.Shape{1, cin, 1024, 1024}, graph.Shape{1, cin, 1, 1})
	depthwise := conv(graph.Shape{1, 1 << 28, 1 << 15, 1 << 15}, graph.Shape{1 << 28, 1, 3, 3},
		graph.IntAttr("group", 1<<28), graph.IntsAttr("pads", 1, 1, 1, 1))
	for _, tc := range []struct {
		name, body string
		code       graph.ValidationCode
	}{
		{"elements and bytes", `{"platform":"a100","batch":1,"graph":` + relu(1, 3037000500, 3037000500) + `}`, graph.ErrBadTensor},
		{"elements wrap to 0", `{"platform":"a100","batch":1,"graph":` + relu(1, 1<<62, 4) + `}`, graph.ErrBadTensor},
		{"inline at its batch", `{"platform":"a100","batch":1073741824,"graph":` + relu(1, 1<<20, 1<<20) + `}`, graph.ErrShapeInference},
		{"zoo tensors at batch 2^62", `{"model":"resnet-50","platform":"a100","batch":4611686018427387904}`, graph.ErrShapeInference},
		{"zoo FLOP at batch 2^40", `{"model":"resnet-50","platform":"a100","batch":1099511627776}`, graph.ErrShapeInference},
		{"parameter count", `{"platform":"a100","batch":1,"graph":` + gathers() + `}`, graph.ErrShapeInference},
		{"padded hardware FLOP", `{"platform":"a100","batch":1,"mode":"measured","graph":` + padded + `}`, graph.ErrShapeInference},
		{"depth-wise hardware FLOP", `{"platform":"a100","batch":1,"graph":` + depthwise + `}`, graph.ErrShapeInference},
	} {
		for i := 0; i <= threshold; i++ {
			resp := postJSON(t, ts.URL+"/v1/profile", tc.body)
			if resp.StatusCode != 400 {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("%s, request %d: status = %d, want 400 (body %.300s)", tc.name, i, resp.StatusCode, b)
			}
			env := decodeEnvelope(t, resp)
			raw, _ := json.Marshal(env.Error.Details)
			var defects []*graph.ValidationError
			if err := json.Unmarshal(raw, &defects); err != nil || len(defects) == 0 || env.Error.Code != "invalid_model" {
				t.Fatalf("%s: envelope %q with details %s, want invalid_model defects", tc.name, env.Error.Code, raw)
			}
			for _, d := range defects {
				if d.Code != tc.code {
					t.Fatalf("%s: details %s, want %s defects", tc.name, raw, tc.code)
				}
			}
		}
	}
	for _, body := range []string{
		`{"model":"resnet-50","platform":"a100","batch":1}`,
		`{"platform":"a100","batch":1,"graph":` + relu(1, 8, 8) + `}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/profile", body)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("valid request after the probes: status = %d, want 200 (body %.300s)", resp.StatusCode, b)
		}
	}
	page := scrapeMetrics(t, ts.URL)
	for _, key := range []string{"resnet-50|a100", "inline|a100"} {
		if v := metricValue(t, page, fmt.Sprintf("proofd_session_breaker_state{key=%q}", key)); v != 0 {
			t.Errorf("%s circuit state = %v, want 0 (closed)", key, v)
		}
	}
}

// TestInlineGraphCircuitsPerPlatform: every inline graph moves its
// platform's one "inline|<platform>" circuit, whatever the graph's
// name. Names are the client's choice, so 120 graphs with distinct
// 1 KiB names on two platforms leave two circuits, and /metrics (which
// exports one breaker_state series per circuit) does not grow with
// the names: it keeps its series count and names none of the graphs.
func TestInlineGraphCircuitsPerPlatform(t *testing.T) {
	sess := profsession.NewWithConfig(profsession.Config{
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			return stubReport(opts), nil
		},
		Breaker: profsession.BreakerConfig{Threshold: 5, Cooldown: 10 * time.Second},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	platforms := []string{"a100", "xeon-6330"}
	post := func(i int, platform string) {
		t.Helper()
		g := tinyServerGraph()
		g.Name = fmt.Sprintf("%04d-%s", i, strings.Repeat("n", 1019))
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/profile", fmt.Sprintf(`{"platform":%q,"graph":%s}`, platform, raw))
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("graph %d on %s: status %d: %.200s", i, platform, resp.StatusCode, b)
		}
	}
	for _, p := range platforms {
		post(0, p)
	}
	scrapeMetrics(t, ts.URL) // the first scrape adds /metrics's own series
	before := strings.Count(scrapeMetrics(t, ts.URL), "\n")
	for i := 1; i < 120; i++ {
		post(i, platforms[i%len(platforms)])
	}
	page := scrapeMetrics(t, ts.URL)
	var circuits []string
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "proofd_session_breaker_state{") {
			circuits = append(circuits, line)
		}
	}
	if len(circuits) != len(platforms) {
		t.Errorf("%d circuits for %d platforms:\n%s", len(circuits), len(platforms), strings.Join(circuits, "\n"))
	}
	for _, p := range platforms {
		if v := metricValue(t, page, fmt.Sprintf("proofd_session_breaker_state{key=%q}", "inline|"+p)); v != 0 {
			t.Errorf("inline|%s circuit state = %v, want 0 (closed)", p, v)
		}
	}
	if after := strings.Count(page, "\n"); after != before || strings.Contains(page, "nnnn") {
		t.Errorf("/metrics went from %d to %d lines over 118 inline graph names", before, after)
	}
}

// TestInlineGraphNamedLikeZooModel: an inline graph named "resnet-18"
// whose runs fail must not open the zoo model's circuit. Five such
// failures open "inline|a100" and leave {"model":"resnet-18"} served.
func TestInlineGraphNamedLikeZooModel(t *testing.T) {
	sess := profsession.NewWithConfig(profsession.Config{
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			if opts.Graph != nil {
				return nil, errors.New("backend down")
			}
			return stubReport(opts), nil
		},
		Breaker: profsession.BreakerConfig{Threshold: 5, Cooldown: time.Minute},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	g := tinyServerGraph()
	g.Name = "resnet-18"
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 5; seed++ {
		resp := postJSON(t, ts.URL+"/v1/profile", fmt.Sprintf(`{"platform":"a100","seed":%d,"graph":%s}`, seed, raw))
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing inline graph, seed %d: status %d, want 500", seed, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet-18","platform":"a100"}`)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("zoo resnet-18 after five failing inline graphs of its name: status %d: %.200s", resp.StatusCode, b)
	}
	page := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, page, `proofd_session_breaker_state{key="inline|a100"}`); v != 2 {
		t.Errorf("inline|a100 circuit state = %v, want 2 (open)", v)
	}
	if v := metricValue(t, page, `proofd_session_breaker_state{key="resnet-18|a100"}`); v != 0 {
		t.Errorf("resnet-18|a100 circuit state = %v, want 0 (closed)", v)
	}
}

// TestRebatchedIntDataRefused: an inline graph input that carries
// constant int data fixes its own length, so a batch that rebatches it
// to a different length contradicts the data. Such a request answers
// 400 invalid_model with one bad_tensor defect, as ValidateAll would
// refuse the rebatched graph; the graph at its own batch is served.
func TestRebatchedIntDataRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := graph.New("int-input")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 16, 16}})
	g.AddTensor(&graph.Tensor{Name: "h", DType: graph.Float32})
	g.AddTensor(&graph.Tensor{Name: "idx", DType: graph.Int64, Shape: graph.Shape{1}, IntData: []int64{0}})
	g.AddTensor(&graph.Tensor{Name: "y", DType: graph.Float32})
	g.AddNode(&graph.Node{Name: "relu", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"h"}})
	g.AddNode(&graph.Node{Name: "gather", OpType: "Gather", Inputs: []string{"h", "idx"}, Outputs: []string{"y"}})
	g.Inputs = []string{"x", "idx"}
	g.Outputs = []string{"y"}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body := func(batch int) string {
		return fmt.Sprintf(`{"platform":"a100","batch":%d,"graph":%s}`, batch, raw)
	}

	resp := postJSON(t, ts.URL+"/v1/profile", body(8))
	if resp.StatusCode != 400 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("batch 8: status = %d, want 400 (body %s)", resp.StatusCode, b)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "invalid_model" {
		t.Fatalf("batch 8: envelope code = %q, want invalid_model", env.Error.Code)
	}
	details, _ := json.Marshal(env.Error.Details)
	var defects []*graph.ValidationError
	if err := json.Unmarshal(details, &defects); err != nil || len(defects) != 1 ||
		defects[0].Code != graph.ErrBadTensor || defects[0].Tensor != "idx" {
		t.Fatalf("batch 8: details %s, want one %s defect on idx", details, graph.ErrBadTensor)
	}

	resp = postJSON(t, ts.URL+"/v1/profile", body(1))
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch 1: status = %d, want 200 (body %s)", resp.StatusCode, b)
	}
}

// TestNullGraphNodeRefused: an inline graph whose node list holds a
// JSON null answers 400 invalid_model with a typed defect naming the
// node's index, the same as a null tensor does, instead of panicking
// in validation and dropping the connection.
func TestNullGraphNodeRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/profile", `{"graph":{"name":"g","nodes":[null]},"platform":"a100"}`)
	if resp.StatusCode != 400 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, b)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "invalid_model" {
		t.Fatalf("envelope code = %q, want invalid_model", env.Error.Code)
	}
	details, _ := json.Marshal(env.Error.Details)
	var defects []*graph.ValidationError
	if err := json.Unmarshal(details, &defects); err != nil || len(defects) != 1 ||
		defects[0].Code != graph.ErrEmptyNodeName || defects[0].Detail != "node 0 is null" {
		t.Fatalf("details %s, want one %s defect on node 0", details, graph.ErrEmptyNodeName)
	}
}

// TestSeparatorInNodeNames: TensorRT names a fused layer by joining its
// node names with " + ", and a node name may contain " + " itself.
// resnet-18 posted with its first Conv renamed "stem + conv" profiles
// on a100 to the original's report except for the renamed strings, and
// five such requests leave the zoo model's circuit closed. A graph
// whose node names make a layer name split two ways ("a", "b" and
// "a + b") is a caller's defect: 400 invalid_model with an
// ambiguous_node_names defect, which never opens a circuit either.
func TestSeparatorInNodeNames(t *testing.T) {
	sess := profsession.NewWithConfig(profsession.Config{
		Breaker: profsession.BreakerConfig{Threshold: 5, Cooldown: 10 * time.Second},
	})
	_, ts := newTestServer(t, Config{Session: sess})
	profile := func(body string) (int, []byte) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/profile", body)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	inline := func(g *graph.Graph, seed int) string {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"platform":"a100","batch":1,"seed":%d,"graph":%s}`, seed, raw)
	}

	original, err := models.Build("resnet-18")
	if err != nil {
		t.Fatal(err)
	}
	renamed := original.Clone()
	var conv *graph.Node
	for _, n := range renamed.Nodes {
		if n.OpType == "Conv" {
			conv = n
			break
		}
	}
	const name = "stem + conv"
	old := conv.Name
	conv.Name = name

	status, want := profile(inline(original, 0))
	if status != 200 {
		t.Fatalf("original: status %d: %s", status, want)
	}
	for seed := 0; seed < 5; seed++ {
		status, got := profile(inline(renamed, seed))
		if status != 200 {
			t.Fatalf("renamed, seed %d: status %d: %s", seed, status, got)
		}
		if seed > 0 {
			continue
		}
		// The name appears as is in layer and node names, and
		// sanitized in kernel names.
		restored := strings.NewReplacer(name, old, "stem___conv", old).Replace(string(got))
		if restored != string(want) {
			t.Errorf("renamed report differs from the original beyond the renamed strings")
		}
	}
	if status, body := profile(`{"model":"resnet-18","platform":"a100"}`); status != 200 {
		t.Fatalf("zoo resnet-18 after the renamed graphs: status %d: %s", status, body)
	}

	// Conv "a" and Relu "b" fuse into a layer named "a + b", which
	// also reads as the Softmax node named "a + b".
	g := graph.New("resnet-18")
	g.AddTensor(&graph.Tensor{Name: "x", DType: graph.Float32, Shape: graph.Shape{1, 8, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{8, 8, 3, 3}, Param: true})
	for _, tn := range []string{"c", "r", "y"} {
		g.AddTensor(&graph.Tensor{Name: tn, DType: graph.Float32})
	}
	g.AddNode(&graph.Node{Name: "a", OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"c"},
		Attrs: graph.MakeAttrs(graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))})
	g.AddNode(&graph.Node{Name: "b", OpType: "Relu", Inputs: []string{"c"}, Outputs: []string{"r"}})
	g.AddNode(&graph.Node{Name: "a + b", OpType: "Softmax", Inputs: []string{"r"}, Outputs: []string{"y"}})
	g.Inputs, g.Outputs = []string{"x"}, []string{"y"}
	for seed := 0; seed < 7; seed++ {
		resp := postJSON(t, ts.URL+"/v1/profile", inline(g, seed))
		if resp.StatusCode != 400 {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("ambiguous, seed %d: status %d, want 400 (body %s)", seed, resp.StatusCode, b)
		}
		env := decodeEnvelope(t, resp)
		raw, _ := json.Marshal(env.Error.Details)
		var defects []*graph.ValidationError
		if err := json.Unmarshal(raw, &defects); err != nil || env.Error.Code != "invalid_model" ||
			len(defects) != 1 || defects[0].Code != graph.ErrAmbiguousNodeNames || !strings.Contains(defects[0].Detail, `"a + b"`) {
			t.Fatalf("ambiguous, seed %d: %s %s, want invalid_model naming layer \"a + b\"", seed, env.Error.Code, raw)
		}
	}
	if status, body := profile(`{"model":"resnet-18","platform":"a100","seed":1}`); status != 200 {
		t.Fatalf("zoo resnet-18 after the ambiguous graphs: status %d: %s", status, body)
	}
}

// TestManySeparatorsAnswerPromptly: a node name that holds " + " ten
// thousand times, every segment of it the name of another node ("x"),
// with a Relu and filler nodes fused after it on a100, is refused as a
// name_separators defect before any backend runs. Without the cap, a
// split search over every separator of such a layer name does a lookup
// per pair of separators, each hashing up to the whole name.
func TestManySeparatorsAnswerPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := strings.Repeat("x + ", 10000) + "x"
	g := graph.New("separators")
	g.AddTensor(&graph.Tensor{Name: "in", DType: graph.Float32, Shape: graph.Shape{1, 8, 8, 8}})
	g.AddTensor(&graph.Tensor{Name: "w", DType: graph.Float32, Shape: graph.Shape{8, 8, 3, 3}, Param: true})
	names := []string{"x", big, "r"}
	for i := 0; i < 9; i++ {
		names = append(names, fmt.Sprintf("filler%d", i))
	}
	prev := "in"
	for i, name := range names {
		out := fmt.Sprintf("t%d", i)
		g.AddTensor(&graph.Tensor{Name: out, DType: graph.Float32})
		n := &graph.Node{Name: name, OpType: "Relu", Inputs: []string{prev}, Outputs: []string{out}}
		if name == big {
			n.OpType, n.Inputs = "Conv", []string{prev, "w"}
			n.Attrs = graph.MakeAttrs(graph.IntsAttr("pads", 1, 1, 1, 1), graph.IntsAttr("kernel_shape", 3, 3))
		}
		g.AddNode(n)
		prev = out
	}
	g.Inputs, g.Outputs = []string{"in"}, []string{prev}
	if errs := g.ValidateAll(); len(errs) != 1 || errs[0].Code != graph.ErrNameSeparators {
		t.Fatalf("defects %v, want only the %s one", errs, graph.ErrNameSeparators)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 20 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/profile", "application/json",
		strings.NewReader(fmt.Sprintf(`{"platform":"a100","batch":1,"graph":%s}`, raw)))
	if err != nil {
		t.Fatalf("no answer within the client's timeout: %v", err)
	}
	if resp.StatusCode != 400 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d, want 400 (body %.200s)", resp.StatusCode, b)
	}
	env := decodeEnvelope(t, resp)
	details, _ := json.Marshal(env.Error.Details)
	var defects []*graph.ValidationError
	if err := json.Unmarshal(details, &defects); err != nil || env.Error.Code != "invalid_model" ||
		len(defects) != 1 || defects[0].Code != graph.ErrNameSeparators || defects[0].Node != big {
		t.Fatalf("%s %.200s, want invalid_model with one %s defect on the node", env.Error.Code, details, graph.ErrNameSeparators)
	}
}
