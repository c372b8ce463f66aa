package server

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"proof/internal/graph"
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
		Attrs: graph.Attrs{"shape": graph.IntsAttr(1, 32)}})
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
