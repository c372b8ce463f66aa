package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"proof/internal/analysis"
	"proof/internal/backend"
	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/graphops"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/models"
	"proof/internal/profsession"
	"proof/internal/server"
)

// span is one timed call of the traced pass. Spans live in memory
// until the pass ends and are written out as one trace file.
type span struct {
	Name   string
	Req    int   // request id: the request's sending position
	Parent int   // index of the parent span, -1 for a root
	Start  int64 // ns since the pass began
	End    int64
	Allocs int64 // heap allocations inside the span, -1 when not counted
}

// tracer records the benchmark's own spans. The pass sends one request
// at a time, so one open request span at most exists.
type tracer struct {
	base  time.Time
	spans []span
	req   int
	open  int // the open server.request span, -1 between requests
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16), open: -1}
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.base)), Allocs: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.base)) }

// mallocs is the process's cumulative heap allocation count.
func mallocs() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}

// readMallocs reads mallocs inside its own "bench.memstats" span under
// parent: the read stops the world, and the span lets the per-layer
// figures leave that cost out.
func (t *tracer) readMallocs(parent int) int64 {
	i := t.begin(benchSpan, parent)
	m := mallocs()
	t.end(i)
	return m
}

// benchSpan names the spans of the benchmark's own allocation reads.
const benchSpan = "bench.memstats"

// timed runs f as span name under parent, counting its allocations
// when allocs is set.
func (t *tracer) timed(name string, parent int, allocs bool, f func()) {
	var m0 int64
	if allocs {
		m0 = t.readMallocs(parent)
	}
	i := t.begin(name, parent)
	f()
	t.end(i)
	if allocs {
		t.spans[i].Allocs = t.readMallocs(parent) - m0
	}
}

// selfTimes returns each span's duration minus the part of it that
// its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			iv = append(iv, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// checkTree verifies the span forest: every span ends after it
// starts, children sit inside their parents and share their request
// id, and no self time is negative.
func checkTree(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) has parent %d recorded after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Req != p.Req {
			return fmt.Errorf("span %d (%s) has request %d, its parent %s request %d", i, s.Name, s.Req, p.Name, p.Req)
		}
	}
	for i, st := range selfTimes(spans) {
		if st < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d", i, spans[i].Name, st)
		}
	}
	return nil
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (open it in Perfetto or chrome://tracing).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"req": s.Req, "self_us": float64(self[i]) / 1e3}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		if s.Allocs >= 0 {
			args["allocs"] = s.Allocs
		}
		events[i] = event{s.Name, "X", float64(s.Start) / 1e3, float64(s.End-s.Start) / 1e3, 1, 1, args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// stack is the in-process serving stack, wired from the constructors
// and default values cmd/proofd uses.
type stack struct {
	sess    *profsession.Session
	store   *memo.Store
	handler http.Handler
}

// newStack builds the stack with profile at the session's Profile
// seam, where the traced pass times core.ProfileCtx.
func newStack(profile core.ProfileFunc) (*stack, error) {
	store := memo.NewStore(memo.StoreConfig{UnitCapacity: memo.DefaultUnitCapacity})
	sess := profsession.NewWithConfig(profsession.Config{
		Profile: profile,
		Memo:    store,
		Retry: profsession.RetryPolicy{
			Attempts: 3,
			Base:     50 * time.Millisecond,
			MaxDelay: 2 * time.Second,
			Jitter:   0.2,
		},
		Breaker: profsession.BreakerConfig{Threshold: 5, Cooldown: profsession.DefaultBreakerCooldown},
	})
	// proofd logs each request as a JSON line; the pass pays for the
	// encoding and drops the bytes.
	srv := server.New(server.Config{
		Session: sess,
		Logger:  slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err := memo.RegisterMetrics(srv.Registry(), "proofd", store); err != nil {
		return nil, err
	}
	return &stack{sess: sess, store: store, handler: srv.Handler()}, nil
}

// memWriter is the http.ResponseWriter the pass serves into.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }

func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// serve sends r through the stack's handler and returns the reply.
// The request is built before timing starts.
func (st *stack) serve(ctx context.Context, l *requestList, r *request, w *memWriter, timing func(func())) (reply, error) {
	var body io.Reader = bytes.NewReader(r.body)
	if r.graph >= 0 {
		body = &net.Buffers{l.heads[r.graph], r.body}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/profile", body)
	if err != nil {
		return reply{}, err
	}
	req.RemoteAddr = "127.0.0.1:1"
	w.h = http.Header{}
	w.status = 0
	w.body.Reset()
	timing(func() { st.handler.ServeHTTP(w, req) })
	return reply{status: w.status, cache: w.h.Get("X-Cache"), body: w.body.Bytes()}, nil
}

// layerMetric is one per-layer metric: its unit, the end-to-end
// metric and workload a change to the layer should move, and the
// workloads whose requests never call the layer. On those the value
// is the stage replayed on the same inputs, and the table says n/a.
type layerMetric struct {
	name, unit, moves string
	na                []string
}

var layerMetrics = []layerMetric{
	{"server.request_us", "us", "p50_ms · all", nil},
	{"server.request_allocs", "count", "allocs_per_req · all", nil},
	{"server.edge_us", "us", "rps, p50_ms · warm-hot", nil},
	{"server.marshal_us", "us", "rps · warm-hot", nil},
	{"server.response_kib", "KiB", "alloc_kib_per_req · warm-hot", nil},
	{"server.decode_graph_us", "us", "p50_ms, cpu_ms_per_req · inline-graph", []string{"cold-zoo", "warm-hot"}},
	{"server.request_kib", "KiB", "p50_ms, cpu_ms_per_req · inline-graph", nil},
	{"profsession.fingerprint_us", "us", "cpu_ms_per_req · inline-graph", nil},
	{"profsession.hit_us", "us", "rps · warm-hot", nil},
	{"profsession.hit_allocs", "count", "allocs_per_req · warm-hot", nil},
	{"profsession.hit_ratio", "ratio", "rps · warm-hot", nil},
	{"profsession.evictions_per_req", "count/req", "heap_live_mib · cold-zoo", nil},
	{"core.pipeline_us", "us", "p50_ms, p90_ms, cpu_ms_per_req · cold-zoo, inline-graph", []string{"warm-hot"}},
	{"core.pipeline_allocs", "count", "allocs_per_req · cold-zoo, inline-graph", []string{"warm-hot"}},
	{"core.executions_per_req", "count/req", "cpu_ms_per_req · cold-zoo, inline-graph", nil},
	{"memo.unit_hit_ratio", "ratio", "cpu_ms_per_req · cold-zoo", []string{"warm-hot"}},
	{"memo.plan_hit_ratio", "ratio", "cpu_ms_per_req · cold-zoo", []string{"warm-hot"}},
	{"memo.units", "count", "heap_live_mib · cold-zoo", nil},
	{"memo.graph_digest_us", "us", "cpu_ms_per_req · inline-graph", []string{"cold-zoo", "warm-hot"}},
	{"models.build_us", "us", "p50_ms, cpu_ms_per_req · cold-zoo", []string{"warm-hot", "inline-graph"}},
	{"models.build_allocs", "count", "allocs_per_req · cold-zoo", []string{"warm-hot", "inline-graph"}},
	{"graph.validate_us", "us", "p50_ms · inline-graph", []string{"warm-hot"}},
	{"graph.infer_us", "us", "p50_ms · inline-graph", []string{"cold-zoo", "warm-hot"}},
	{"analysis.rep_us", "us", "p50_ms · cold-zoo", []string{"warm-hot"}},
	{"backend.build_us", "us", "p50_ms, cpu_ms_per_req · cold-zoo", []string{"warm-hot"}},
	{"backend.build_allocs", "count", "allocs_per_req · cold-zoo", []string{"warm-hot"}},
	{"backend.map_layers_us", "us", "p50_ms, cpu_ms_per_req · cold-zoo", []string{"warm-hot"}},
}

// tracedRun is one pass over the list.
type tracedRun struct {
	tally
	requests  int // timed requests served
	requestUS []float64
	reqBytes  []float64
	respBytes []float64
	sess      profsession.Stats // deltas over the timed requests
	memo      memo.Stats        // deltas over the timed requests
	samples   map[int32][]byte
}

// pass serves the warm-up requests, then the timed ones until budget
// runs out or limit requests are served (limit < 0: no limit). With a
// tracer it records spans and replays each request's stages after its
// span closes.
func pass(ctx context.Context, l *requestList, tr *tracer, budget time.Duration, limit int, seed uint64) (*tracedRun, error) {
	profile := core.ProfileFunc(core.ProfileCtx)
	if tr != nil {
		profile = func(ctx context.Context, o core.Options) (*core.Report, error) {
			var rep *core.Report
			var err error
			tr.timed("core.pipeline", tr.open, true, func() { rep, err = core.ProfileCtx(ctx, o) })
			return rep, err
		}
	}
	st, err := newStack(profile)
	if err != nil {
		return nil, err
	}
	run := &tracedRun{tally: newTally(), samples: map[int32][]byte{}}
	var w memWriter
	setupBodies := map[int32][]byte{}
	serve := func(id int, r *request) (reply, float64, error) {
		var dur time.Duration
		timing := func(f func()) {
			t0 := time.Now()
			f()
			dur = time.Since(t0)
		}
		if tr != nil {
			tr.req = id
			timing = func(f func()) {
				m0 := mallocs()
				i := tr.begin("server.request", -1)
				tr.open = i
				f()
				tr.end(i)
				tr.open = -1
				tr.spans[i].Allocs = mallocs() - m0
				dur = time.Duration(tr.spans[i].End - tr.spans[i].Start)
			}
		}
		rep, err := st.serve(ctx, l, r, &w, timing)
		return rep, float64(dur) / float64(time.Microsecond), err
	}
	for id, key := range l.warmup {
		r := &l.keys[key]
		rep, _, err := serve(id, r)
		if err != nil {
			return nil, err
		}
		run.add(rep, checkReply(rep, r, "miss"), r)
		setupBodies[key] = bytes.Clone(rep.body)
	}

	want := wantCache(l.workload)
	samplePos := samplePositions(seed, len(l.timed))
	zoo := map[string][]byte{}
	start := time.Now()
	for pos, key := range l.timed {
		if pos == limit || (limit < 0 && time.Since(start) > budget) {
			break
		}
		r := &l.keys[key]
		s0, m0 := st.sess.Stats(), st.store.Stats()
		rep, us, err := serve(len(l.warmup)+pos, r)
		if err != nil {
			return nil, err
		}
		s1, m1 := st.sess.Stats(), st.store.Stats()
		addSessDelta(&run.sess, s0, s1)
		addMemoDelta(&run.memo, m0, m1)
		run.requests++
		fail := checkReply(rep, r, want)
		if fail == "" && want == "hit" && !bytes.Equal(rep.body, setupBodies[key]) {
			fail = "body"
		}
		if fail == "" && samplePos[pos] {
			run.samples[key] = bytes.Clone(rep.body)
		}
		if fail == "" && tr != nil {
			if fail, err = replay(ctx, l, r, st, tr, rep.body, zoo); err != nil {
				return nil, err
			}
		}
		run.add(rep, fail, r)
		run.requestUS = append(run.requestUS, us)
		run.reqBytes = append(run.reqBytes, float64(l.bodyLen(r)))
		run.respBytes = append(run.respBytes, float64(len(rep.body)))
	}
	return run, nil
}

func addSessDelta(acc *profsession.Stats, a, b profsession.Stats) {
	acc.Hits += b.Hits - a.Hits
	acc.Misses += b.Misses - a.Misses
	acc.Dedups += b.Dedups - a.Dedups
	acc.Evictions += b.Evictions - a.Evictions
}

func addMemoDelta(acc *memo.Stats, a, b memo.Stats) {
	acc.Hits += b.Hits - a.Hits
	acc.Misses += b.Misses - a.Misses
	acc.PlanHits += b.PlanHits - a.PlanHits
	acc.PlanMisses += b.PlanMisses - a.PlanMisses
	acc.Units = b.Units
}

// replay times each layer's public entry point on r's own inputs,
// under one "replay" root that opens after r's request span closed.
// It returns a failure class when a replayed stage disagrees with
// what proofd's stack answered.
func replay(ctx context.Context, l *requestList, r *request, st *stack, tr *tracer, body []byte, zoo map[string][]byte) (string, error) {
	root := tr.begin("replay", -1)
	defer tr.end(root)

	// The graph a client would post: the request's own for inline
	// requests, the zoo model's export otherwise.
	raw := zoo[r.model]
	if r.graph >= 0 {
		raw = l.graphs[r.graph]
	} else if raw == nil {
		g, err := models.Build(r.model)
		if err != nil {
			return "", err
		}
		if raw, err = json.Marshal(g); err != nil {
			return "", fmt.Errorf("encoding %s graph: %w", r.model, err)
		}
		zoo[r.model] = raw
	}
	var (
		decoded *graph.Graph
		err     error
	)
	tr.timed("server.decode_graph", root, false, func() { decoded, err = decodeGraph(raw) })
	if err != nil {
		return "", err
	}
	var inline *graph.Graph
	if r.graph >= 0 {
		inline = decoded
	}
	opts := r.options(inline)
	tr.timed("profsession.fingerprint", root, false, func() { _, err = profsession.Fingerprint(opts) })
	if err != nil {
		return "", err
	}
	var (
		report  *core.Report
		outcome profsession.Outcome
	)
	tr.timed("profsession.hit", root, true, func() { report, outcome, err = st.sess.ProfileOutcome(ctx, opts) })
	if err != nil {
		return "", err
	}
	if outcome != profsession.OutcomeHit {
		return "replay outcome " + string(outcome), nil
	}
	var data []byte
	tr.timed("server.marshal", root, false, func() { data, err = json.Marshal(report) })
	if err != nil {
		return "", err
	}
	if !bytes.Equal(append(data, '\n'), body) {
		return "marshal", nil
	}
	tr.timed("memo.graph_digest", root, false, func() { _, err = memo.GraphDigest(decoded) })
	if err != nil {
		return "", err
	}
	var built *graph.Graph
	tr.timed("models.build", root, true, func() {
		info, ok := models.Lookup(r.model)
		if !ok {
			err = fmt.Errorf("unknown model %q", r.model)
			return
		}
		built, err = info.Build()
	})
	if err != nil {
		return "", err
	}
	// The pipeline's graph: the zoo build, or a copy of the posted one.
	g := built
	if inline != nil {
		g = inline.Clone()
	}
	tr.timed("graph.validate", root, false, func() { _ = g.ValidateAll() })
	tr.timed("graph.infer", root, false, func() { err = g.Clone().InferShapes() })
	if err != nil {
		return "", err
	}

	plat, err := hardware.Get(r.platform)
	if err != nil {
		return "", err
	}
	be, err := backend.Get(plat.Runtime)
	if err != nil {
		return "", err
	}
	dt, batch := plat.DefaultDType, r.batch
	if batch <= 0 {
		batch = plat.DefaultBatch
	}
	var rep *analysis.Rep
	tr.timed("analysis.rep", root, false, func() {
		if graphops.IsQuantized(g) {
			dt = graph.Int8
		} else {
			g.ConvertFloatTensors(dt)
		}
		rep, err = analysis.NewRepWithBatch(g, batch)
	})
	if err != nil {
		return "", err
	}
	var eng *backend.Engine
	cfg := backend.Config{Platform: plat, DType: dt, Batch: batch, Clocks: opts.Clocks}
	tr.timed("backend.build", root, true, func() { eng, err = be.Build(ctx, rep, cfg) })
	if err != nil {
		return "", err
	}
	tr.timed("backend.map_layers", root, false, func() {
		_, err = be.MapLayers(ctx, eng, analysis.NewOptimizedRep(rep))
	})
	return "", err
}

// runTrace is the traced pass: two thirds of the budget with spans on,
// then the same requests on a fresh stack with spans off, whose
// difference in median request time is the tracing overhead.
func runTrace(ctx context.Context, workload string, seed uint64, seconds int, out string) (*result, error) {
	l, err := buildList(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	on, err := pass(ctx, l, tr, time.Duration(seconds)*time.Second*2/3, -1, seed)
	if err != nil {
		return nil, err
	}
	off, err := pass(ctx, l, nil, 0, on.requests, seed)
	if err != nil {
		return nil, err
	}
	if err := checkTree(tr.spans); err != nil {
		return nil, fmt.Errorf("traced span tree: %w", err)
	}
	checks := newTally()
	if err := checkSamples(ctx, l, on.samples, &checks); err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("perfbench-trace-%s-seed%d.json", workload, seed))
	if err := writeChromeTrace(path, tr.spans); err != nil {
		return nil, err
	}

	printList(l, on.requests)
	values := layerValues(tr.spans, len(l.warmup), on)
	metrics := map[string]metric{}
	fmt.Printf("traced: %s, one request at a time, %d requests with spans on and %d with spans off\n", workload, on.requests, off.requests)
	fmt.Printf("%-32s %14s %-9s %s\n", "per-layer metric", "median", "unit", "should move")
	for _, m := range layerMetrics {
		v := values[m.name]
		metrics[m.name] = metric{v, m.unit}
		note := ""
		for _, w := range m.na {
			if w == workload {
				note = "n/a: this workload's requests never reach it"
			}
		}
		if note == "" {
			note = m.moves
		}
		fmt.Printf("%-32s %14.3f %-9s %s\n", m.name, v, m.unit, note)
	}
	onMed, offMed := median(append([]float64(nil), on.requestUS...)), median(append([]float64(nil), off.requestUS...))
	fmt.Printf("split: edge %.1f%% of request time (medians)\n", 100*values["server.edge_us"]/values["server.request_us"])
	fmt.Printf("overhead: median server.request_us %.1f with spans on, %.1f with spans off, %+.1f us\n", onMed, offMed, onMed-offMed)
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	printCounts("traced", on.tally)
	printCounts("untraced", off.tally)
	printCounts("checks", checks)

	total := on.tally
	total.merge(off.tally)
	total.merge(checks)
	return &result{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   metrics,
	}, nil
}

// layerValues computes every per-layer metric from the spans of the
// timed requests (ids from firstTimed on) and the run's counters.
func layerValues(spans []span, firstTimed int, run *tracedRun) map[string]float64 {
	dur := map[string][]float64{}
	allocs := map[string][]float64{}
	setupPipeline := map[string][]float64{}
	// Per request span: the pipeline time and the benchmark's own
	// allocation reads inside it.
	pipelineIn, benchIn := map[int]float64{}, map[int]float64{}
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		if s.Req < firstTimed {
			if s.Name == "core.pipeline" {
				setupPipeline["us"] = append(setupPipeline["us"], us)
				setupPipeline["allocs"] = append(setupPipeline["allocs"], float64(s.Allocs))
			}
			continue
		}
		if s.Allocs >= 0 {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Allocs))
		}
		switch s.Name {
		case "core.pipeline":
			pipelineIn[s.Parent] += us
		case benchSpan:
			benchIn[s.Parent] += us
		}
		if s.Name != "server.request" {
			dur[s.Name] = append(dur[s.Name], us)
		}
	}
	var edge []float64
	for i, s := range spans {
		if s.Name == "server.request" && s.Req >= firstTimed {
			us := float64(s.End-s.Start)/1e3 - benchIn[i]
			dur[s.Name] = append(dur[s.Name], us)
			edge = append(edge, us-pipelineIn[i])
		}
	}
	pipelineUS, pipelineAllocs := dur["core.pipeline"], allocs["core.pipeline"]
	if len(pipelineUS) == 0 {
		// No timed request ran the pipeline (warm-hot): report the
		// setup misses that filled the cache.
		pipelineUS, pipelineAllocs = setupPipeline["us"], setupPipeline["allocs"]
	}
	n := float64(max(run.requests, 1))
	return map[string]float64{
		"server.request_us":             median(dur["server.request"]),
		"server.request_allocs":         median(allocs["server.request"]),
		"server.edge_us":                median(edge),
		"server.marshal_us":             median(dur["server.marshal"]),
		"server.response_kib":           median(run.respBytes) / 1024,
		"server.decode_graph_us":        median(dur["server.decode_graph"]),
		"server.request_kib":            median(run.reqBytes) / 1024,
		"profsession.fingerprint_us":    median(dur["profsession.fingerprint"]),
		"profsession.hit_us":            median(dur["profsession.hit"]),
		"profsession.hit_allocs":        median(allocs["profsession.hit"]),
		"profsession.hit_ratio":         ratio(run.sess.Hits, run.sess.Hits+run.sess.Misses+run.sess.Dedups),
		"profsession.evictions_per_req": float64(run.sess.Evictions) / n,
		"core.pipeline_us":              median(pipelineUS),
		"core.pipeline_allocs":          median(pipelineAllocs),
		"core.executions_per_req":       float64(len(dur["core.pipeline"])) / n,
		"memo.unit_hit_ratio":           ratio(run.memo.Hits, run.memo.Hits+run.memo.Misses),
		"memo.plan_hit_ratio":           ratio(run.memo.PlanHits, run.memo.PlanHits+run.memo.PlanMisses),
		"memo.units":                    float64(run.memo.Units),
		"memo.graph_digest_us":          median(dur["memo.graph_digest"]),
		"models.build_us":               median(dur["models.build"]),
		"models.build_allocs":           median(allocs["models.build"]),
		"graph.validate_us":             median(dur["graph.validate"]),
		"graph.infer_us":                median(dur["graph.infer"]),
		"analysis.rep_us":               median(dur["analysis.rep"]),
		"backend.build_us":              median(dur["backend.build"]),
		"backend.build_allocs":          median(allocs["backend.build"]),
		"backend.map_layers_us":         median(dur["backend.map_layers"]),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
