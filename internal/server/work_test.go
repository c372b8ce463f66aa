package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/models"
	"proof/internal/obs"
	"proof/internal/profsession"
)

// TestRequestWorkPinned pins the graph work of one profiling request
// through the spans of its trace:
//   - an "admit" span is one admission, which runs ValidateAll once:
//     for a zoo model it also builds the graph; at the edge it decodes
//     the posted graph and runs the shape gate's one InferShapes;
//   - a pipeline's "model_build" span runs one InferShapes, on its
//     view, and admits its graph first (a nested "admit" span) only
//     when the graph it was handed was not admitted.
//
// So after a model's first request a zoo request does no build, no
// ValidateAll and one InferShapes, and an inline request one
// ValidateAll and two InferShapes. The pipeline seam also checks that
// the inline graph arrives admitted: Clone copies no admission, so a
// copy anywhere between the edge and the pipeline fails the test.
func TestRequestWorkPinned(t *testing.T) {
	var mu sync.Mutex
	var handed []*graph.Graph
	sess := profsession.NewWithConfig(profsession.Config{
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			mu.Lock()
			handed = append(handed, opts.Graph)
			mu.Unlock()
			return core.ProfileCtx(ctx, opts)
		},
	})
	s, _ := newTestServer(t, Config{Session: sess})
	serve := func(id, body string) *obs.Trace {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/profile", strings.NewReader(body))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("%s: status %d, X-Cache %q, want a 200 miss (body %s)", id, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		for _, tr := range s.traces.Snapshot() {
			if tr.Name == id {
				return tr
			}
		}
		t.Fatalf("%s: no trace recorded", id)
		return nil
	}
	spans := func(tr *obs.Trace, name string) []obs.SpanData {
		var out []obs.SpanData
		for _, sp := range tr.Spans {
			if sp.Name == name {
				out = append(out, sp)
			}
		}
		return out
	}

	// The first request for a model may admit it; no later one does, at
	// any batch, platform or seed.
	serve("zoo-first", `{"model":"resnet-18","platform":"a100","batch":1}`)
	for i, body := range []string{
		`{"model":"resnet-18","platform":"a100","batch":8,"seed":3}`,
		`{"model":"resnet-18","platform":"xeon-6330","batch":2}`,
	} {
		tr := serve(fmt.Sprintf("zoo-%d", i), body)
		if n := len(spans(tr, "admit")); n != 0 {
			t.Errorf("zoo request %d: %d admissions, want 0 (no build, no ValidateAll)", i, n)
		}
		if n := len(spans(tr, "model_build")); n != 1 {
			t.Errorf("zoo request %d: %d model_build stages, want 1 (one InferShapes)", i, n)
		}
	}

	built, err := models.Build("resnet-18")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	tr := serve("inline", fmt.Sprintf(`{"platform":"a100","batch":4,"graph":%s}`, raw))
	admits := spans(tr, "admit")
	if len(admits) != 1 {
		t.Fatalf("inline request: %d admissions, want 1 (one ValidateAll)", len(admits))
	}
	if root := tr.Find("request"); root == nil || admits[0].ParentID != root.ID {
		t.Errorf("inline request: the admission is not the edge's")
	}
	if n := len(spans(tr, "model_build")); n != 1 {
		t.Errorf("inline request: %d model_build stages, want 1 (the gate's InferShapes and one more)", n)
	}
	if g := handed[len(handed)-1]; g == nil || !g.Admitted() {
		t.Error("inline request: the pipeline got a graph that is not the admitted one")
	}
}
