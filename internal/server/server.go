// Package server implements proofd, the long-running HTTP profiling
// service: the PRoof pipeline exposed as a JSON API. All profiling is
// served through one shared cached session (internal/profsession), so
// the hot path of a busy service — many clients asking about the same
// model/platform points — is a cache hit, which decodes the stored
// report's encoding, rather than a pipeline execution.
//
// Serving robustness, in the order a request meets it:
//
//   - request ID + structured JSON log line per request
//   - body size cap (413 beyond MaxBodyBytes)
//   - admission control for profiling endpoints: at most MaxInflight
//     executing plus MaxQueue waiting; excess gets 429 + Retry-After
//   - per-request timeout threaded into core.ProfileCtx, sharing the
//     request context so a client disconnect cancels pipeline work
//   - graceful drain: Serve stops accepting, fails fast on new work
//     (503), finishes in-flight requests, bounded by ShutdownTimeout
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proof/internal/core"
	"proof/internal/faults"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/histstore"
	"proof/internal/jsonread"
	"proof/internal/models"
	"proof/internal/obs"
	"proof/internal/profsession"
)

// Config tunes the service. The zero value is usable: every field has a
// serving-sane default.
type Config struct {
	// Session is the shared profiling session (nil = new session with
	// the default cache capacity).
	Session *profsession.Session
	// MaxInflight bounds concurrently executing profile/sweep requests
	// (0 = GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot
	// (0 = 4x MaxInflight).
	MaxQueue int
	// QueueWait is the longest a request waits in the queue before
	// 429 (0 = 2s).
	QueueWait time.Duration
	// RequestTimeout caps one profiling request end to end (0 = 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// ShutdownTimeout bounds the graceful drain (0 = 15s).
	ShutdownTimeout time.Duration
	// Logger receives one structured line per request (nil = JSON to
	// stderr). The server wraps the handler so request ID and root
	// span ID ride along on context-aware log calls.
	Logger *slog.Logger
	// Registry is the shared metrics registry (nil = a fresh one).
	// Passing a process-wide registry lets proofd's HTTP edge, the
	// profiling session and the pipeline stage timings land on one
	// /metrics page.
	Registry *obs.Registry
	// TraceRingSize bounds the recent request traces retained for
	// GET /debug/traces (0 = 16).
	TraceRingSize int
	// History, when set, persists every cache-miss profile report to
	// the store and enables GET /v1/history and GET /v1/drift. The
	// store belongs to the caller (proofd opens and closes it); the
	// server owns only its async writer.
	History *histstore.Store
	// HistoryQueue bounds reports waiting for the async store writer;
	// a full queue drops (and counts) rather than blocking the
	// serving path (0 = 256).
	HistoryQueue int
	// GitRev identifies the code revision stamped onto stored reports
	// and the build-info metric ("" = the binary's vcs.revision, else
	// "unknown").
	GitRev string
}

func (c Config) withDefaults() Config {
	if c.Session == nil {
		c.Session = profsession.New(0)
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if _, ok := c.Logger.Handler().(ctxHandler); !ok {
		c.Logger = slog.New(ctxHandler{c.Logger.Handler()})
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the proofd HTTP service. Construct with New; safe for
// concurrent use.
type Server struct {
	cfg        Config
	sess       *profsession.Session
	adm        *admission
	metrics    *metrics
	traces     *obs.Ring
	log        *slog.Logger
	mux        *http.ServeMux
	draining   atomic.Bool
	idPrefix   string
	idNext     atomic.Uint64
	gitRev     string
	hist       *histstore.Store
	histW      *histstore.Writer
	driftGauge *obs.GaugeVec
}

// New constructs a server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var b [4]byte
	_, _ = rand.Read(b[:])
	s := &Server{
		cfg:      cfg,
		sess:     cfg.Session,
		adm:      newAdmission(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait),
		traces:   obs.NewRing(cfg.TraceRingSize),
		log:      cfg.Logger,
		idPrefix: hex.EncodeToString(b[:]),
	}
	s.metrics = wireMetrics(cfg.Registry, s.adm, s.sess)
	s.gitRev = resolveGitRev(cfg.GitRev)
	wireBuildInfo(cfg.Registry, s.gitRev)
	if cfg.History != nil {
		s.wireHistory(cfg)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/profile", s.handleProfile)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("/v1/history", s.handleHistory)
	s.mux.HandleFunc("/v1/drift", s.handleDrift)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, r, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint %q", r.URL.Path))
	})
	return s
}

// Session returns the shared profiling session (for stats inspection).
func (s *Server) Session() *profsession.Session { return s.sess }

// Handler returns the full middleware-wrapped handler. Profiling
// endpoints run under a per-request obs.Tracer whose finished trace
// lands in the /debug/traces ring and feeds the per-stage latency
// histograms; other endpoints pay nothing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%s-%06d", s.idPrefix, s.idNext.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		rw := &statusWriter{ResponseWriter: w}
		ctx := withRequestID(r.Context(), id)
		var tr *obs.Tracer
		var root *obs.Span
		if traced(r.URL.Path) {
			tr = obs.NewTracer(id)
			ctx = obs.WithTracer(ctx, tr)
			ctx, root = obs.Start(ctx, "request")
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
		}
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		s.mux.ServeHTTP(rw, r)

		code := rw.status
		if code == 0 {
			code = http.StatusOK
		}
		d := time.Since(start)
		s.metrics.observe(metricPath(r.URL.Path), code, d)
		if tr != nil {
			root.SetAttrInt("status", int64(code))
			root.End()
			trace := tr.Snapshot()
			s.traces.Add(trace)
			obs.ObserveStages(s.metrics.reg, "proofd", trace)
		}
		attrs := []any{
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", code,
			"duration_ms", float64(d.Microseconds()) / 1000,
			"remote", r.RemoteAddr,
		}
		if cache := rw.Header().Get("X-Cache"); cache != "" {
			attrs = append(attrs, "cache", cache)
		}
		s.log.InfoContext(ctx, "request", attrs...)
	})
}

// traced selects the endpoints that run under a per-request tracer:
// the ones that execute the pipeline.
func traced(path string) bool {
	return path == "/v1/profile" || path == "/v1/sweep"
}

// metricPath collapses unknown paths into one label value so a URL
// scanner cannot explode the metrics cardinality.
func metricPath(p string) string {
	switch p {
	case "/v1/profile", "/v1/sweep", "/v1/models", "/v1/platforms",
		"/v1/history", "/v1/drift", "/healthz", "/metrics", "/debug/traces":
		return p
	}
	return "other"
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

type ctxKey int

const requestIDKey ctxKey = 0

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ---- error envelope ----

// APIError is the error payload of every non-2xx response.
type APIError struct {
	// Code is a stable machine-readable identifier.
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Details carries structured, code-specific context — for
	// invalid_model it is the list of graph.ValidationError defects.
	Details any `json:"details,omitempty"`
}

// ErrorEnvelope is the JSON body of every non-2xx response.
type ErrorEnvelope struct {
	Error     APIError `json:"error"`
	RequestID string   `json:"request_id,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	s.writeErrorDetails(w, r, status, code, msg, nil)
}

func (s *Server) writeErrorDetails(w http.ResponseWriter, r *http.Request, status int, code, msg string, details any) {
	s.writeJSON(w, status, ErrorEnvelope{
		Error:     APIError{Code: code, Message: msg, Details: details},
		RequestID: requestID(r.Context()),
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// requireMethod writes the 405 envelope (with Allow) on mismatch.
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	s.writeError(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("%s requires %s, got %s", r.URL.Path, method, r.Method))
	return false
}

// readRequest reads a request body once, whole, and decodes it with
// decode, under a "decode" span, answering 413 or 400 itself on
// failure (true = decoded).
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	_, sp := obs.Start(r.Context(), "decode")
	defer sp.End()
	data, err := readBody(r, s.cfg.MaxBodyBytes)
	sp.SetAttrInt("bytes", int64(len(data)))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return false
	}
	if err := decode(data); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// readBody reads the whole body: at most limit bytes (the Handler's
// MaxBytesReader enforces it while reading; a declared Content-Length
// beyond it is refused unread), into one buffer presized from
// Content-Length.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := r.ContentLength
	if size < 0 {
		size = 512
	}
	// One spare byte lets the read that meets EOF run without growing.
	b := make([]byte, 0, size+1)
	for {
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// admit runs the admission controller for a profiling endpoint,
// answering 429/503 itself when the request cannot proceed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		setRetryAfter(w, time.Second)
		s.writeError(w, r, http.StatusServiceUnavailable, "draining", "server is shutting down")
		return false
	}
	if err := s.adm.acquire(r.Context()); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueTimeout):
			// One full queue wait: the estimate of when a slot frees.
			setRetryAfter(w, s.cfg.QueueWait)
			s.writeError(w, r, http.StatusTooManyRequests, "too_many_requests", err.Error())
		default:
			// Client went away while queued; nothing useful to write.
			s.writeError(w, r, statusClientClosedRequest, "canceled", "client closed request while queued")
		}
		return false
	}
	return true
}

// statusClientClosedRequest is nginx's convention for "client
// disconnected before the response"; it only ever reaches logs and
// metrics, never a live client.
const statusClientClosedRequest = 499

// ---- endpoints ----

// ProfileRequest is the POST /v1/profile body. Fields mirror
// core.Options with wire-friendly types. Exactly one of Model (a zoo
// key) or Graph (an inline model graph, decoded with the body) selects
// the model; inline graphs pass the static verifier before admission,
// so a corrupt one is rejected with 400 invalid_model and never
// consumes an execution slot.
type ProfileRequest struct {
	Model            string       `json:"model,omitempty"`
	Graph            *graph.Graph `json:"graph,omitempty"`
	Platform         string       `json:"platform"`
	Backend          string       `json:"backend,omitempty"`
	Batch            int          `json:"batch,omitempty"`
	DType            string       `json:"dtype,omitempty"`
	Mode             string       `json:"mode,omitempty"`
	Seed             uint64       `json:"seed,omitempty"`
	GPUClockMHz      int          `json:"gpu_clock_mhz,omitempty"`
	EMCClockMHz      int          `json:"emc_clock_mhz,omitempty"`
	GPUCapacity      float64      `json:"gpu_capacity,omitempty"`
	CPUClusters      int          `json:"cpu_clusters,omitempty"`
	MeasuredRoofline bool         `json:"measured_roofline,omitempty"`
	IgnoreSupport    bool         `json:"ignore_support,omitempty"`
}

// profileFields are ProfileRequest's json names in field order
// (TestRequestFieldsMirrorTags holds them to the tags).
var profileFields = jsonread.Fields{"model", "graph", "platform", "backend", "batch", "dtype", "mode", "seed",
	"gpu_clock_mhz", "emc_clock_mhz", "gpu_capacity", "cpu_clusters", "measured_roofline", "ignore_support"}

// decodeProfileRequest decodes a /v1/profile body in one strict pass,
// an inline graph included (see jsonread for the accept set; null
// leaves any field, the graph too, absent).
func decodeProfileRequest(data []byte) (ProfileRequest, error) {
	var req ProfileRequest
	r := jsonread.NewReader(data)
	if r.Object() {
		var seen uint64
		for f := r.Field(profileFields, &seen); f >= 0; f = r.Field(profileFields, &seen) {
			switch f {
			case 0:
				req.Model = r.String()
			case 1:
				req.Graph = graph.ReadJSON(r)
			case 2:
				req.Platform = r.String()
			case 3:
				req.Backend = r.String()
			case 4:
				req.Batch = r.Int()
			case 5:
				req.DType = r.String()
			case 6:
				req.Mode = r.String()
			case 7:
				req.Seed = r.Uint64()
			case 8:
				req.GPUClockMHz = r.Int()
			case 9:
				req.EMCClockMHz = r.Int()
			case 10:
				req.GPUCapacity = r.Float64()
			case 11:
				req.CPUClusters = r.Int()
			case 12:
				req.MeasuredRoofline = r.Bool()
			case 13:
				req.IgnoreSupport = r.Bool()
			}
		}
	}
	return req, r.End()
}

// validateProfile parses the request into core.Options and resolves
// them, answering the envelope itself on failure (the *Server receiver
// is for error writing only).
func (s *Server) validateProfile(w http.ResponseWriter, r *http.Request, req ProfileRequest) (core.Resolved, bool) {
	var zero core.Resolved
	if req.Model == "" && req.Graph == nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "model or graph is required")
		return zero, false
	}
	if req.Model != "" && req.Graph != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "model and graph are mutually exclusive")
		return zero, false
	}
	var inline *graph.Graph
	if req.Graph != nil {
		g, ok := s.admitGraph(w, r, req.Graph)
		if !ok {
			return zero, false
		}
		inline = g
	}
	if req.Platform == "" {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "platform is required")
		return zero, false
	}
	var dt graph.DataType
	if req.DType != "" {
		var err error
		if dt, err = graph.ParseDataType(req.DType); err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
			return zero, false
		}
	}
	opts := core.Options{
		Model:    req.Model,
		Graph:    inline,
		Platform: req.Platform,
		Backend:  req.Backend,
		Batch:    req.Batch,
		DType:    dt,
		Mode:     core.Mode(req.Mode),
		Seed:     req.Seed,
		Clocks: hardware.Clocks{
			GPUMHz:      req.GPUClockMHz,
			EMCMHz:      req.EMCClockMHz,
			GPUCapacity: req.GPUCapacity,
			CPUClusters: req.CPUClusters,
		},
		MeasuredRoofline: req.MeasuredRoofline,
		IgnoreSupport:    req.IgnoreSupport,
	}
	res, err := core.Resolve(opts)
	if err != nil {
		s.writeProfilingError(w, r, err)
		return zero, false
	}
	return res, true
}

// admitGraph admits an inline model graph once, at the edge, answering
// 400 itself on failure: it defaults the decoded graph's name and
// tensor map, verifies it (graph.Admit runs ValidateAll and hashes the
// graph as posted) and runs shape inference on the admitted graph
// before anything else can see it, so semantic defects also answer 400
// before the request takes an execution slot. The whole defect list
// (not just the first) rides in the envelope's details so a client can
// fix a corrupt export in one round trip. The session and the pipeline
// take the admitted graph as is: neither verifies nor copies it again.
func (s *Server) admitGraph(w http.ResponseWriter, r *http.Request, g *graph.Graph) (*graph.Graph, bool) {
	_, sp := obs.Start(r.Context(), "admit")
	defer sp.End()
	if g.Tensors == nil {
		g.Tensors = map[string]*graph.Tensor{}
	}
	if g.Name == "" {
		g.Name = "inline"
	}
	a, errs := graph.Admit(g)
	if len(errs) > 0 {
		s.writeErrorDetails(w, r, http.StatusBadRequest, "invalid_model",
			fmt.Sprintf("model graph failed static verification with %d defect(s)", len(errs)), errs)
		return nil, false
	}
	if err := a.InferShapes(); err != nil {
		s.writeProfilingError(w, r, err) // a typed shape_inference defect: 400 invalid_model
		return nil, false
	}
	sp.SetAttrInt("nodes", int64(len(a.Nodes)))
	return a, true
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ProfileRequest
	if !s.readRequest(w, r, func(data []byte) (err error) {
		req, err = decodeProfileRequest(data)
		return err
	}) {
		return
	}
	res, ok := s.validateProfile(w, r, req)
	if !ok {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	report, outcome, err := s.sess.ProfileOutcome(ctx, res.Options)
	if err != nil {
		s.writeProfilingError(w, r, err)
		return
	}
	w.Header().Set("X-Cache", string(outcome))
	// Only cache misses executed the pipeline and produced a new
	// result; hits and dedups would store the same report again.
	var persist *core.Resolved
	if outcome == profsession.OutcomeMiss {
		persist = &res
	}
	s.writeProfileReport(w, r, ctx, report, persist)
}

// reportBufs recycles the buffers profile responses are encoded into.
// A buffer holds one response only until its handler has written it:
// persistReport copies what the history keeps, and writeJSON what the
// ?trace=1 envelope wraps.
var reportBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeProfileReport renders a profile response, honoring ?trace=1,
// and stores the report in the history under persist, the request it
// answers, unless persist is nil. The report is encoded exactly once,
// under a "marshal" span, into a pooled buffer: the bytes on the wire
// are the bytes handed to the history store (the differential suite
// asserts a stored report reads back byte-identical to the response).
func (s *Server) writeProfileReport(w http.ResponseWriter, r *http.Request, ctx context.Context, report *core.Report, persist *core.Resolved) {
	buf := reportBufs.Get().(*[]byte)
	defer reportBufs.Put(buf)
	_, sp := obs.Start(ctx, "marshal")
	data, err := report.AppendJSON((*buf)[:0])
	sp.SetAttrInt("bytes", int64(len(data)))
	sp.EndErr(err)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "encoding report failed: "+err.Error())
		return
	}
	*buf = append(data, '\n') // the pool keeps the buffer as this response grew it
	if persist != nil {
		s.persistReport(persist, report, data)
	}
	if r.URL.Query().Get("trace") == "1" {
		s.writeJSON(w, http.StatusOK, TracedProfileResponse{
			Report: data,
			Trace:  chromeTrace(ctx),
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*buf)
}

// TracedProfileResponse is the POST /v1/profile?trace=1 body: the
// report plus the request's pipeline trace in the Chrome trace-event
// format (load the trace value in Perfetto / chrome://tracing).
type TracedProfileResponse struct {
	// Report carries the already-marshaled core.Report (raw so the
	// report bytes match the untraced response exactly).
	Report json.RawMessage `json:"report"`
	Trace  json.RawMessage `json:"trace,omitempty"`
}

// chromeTrace snapshots the request's tracer as Chrome trace JSON
// (nil when the request is untraced — only spans finished so far are
// included, which at response time is the whole pipeline).
func chromeTrace(ctx context.Context) json.RawMessage {
	tr := obs.TracerFrom(ctx)
	if tr == nil {
		return nil
	}
	raw, err := tr.Snapshot().ChromeJSON()
	if err != nil {
		return nil
	}
	return raw
}

// SweepRequest is the POST /v1/sweep body.
type SweepRequest struct {
	Model string `json:"model"`
	Mode  string `json:"mode,omitempty"`
}

// sweepFields are SweepRequest's json names in field order.
var sweepFields = jsonread.Fields{"model", "mode"}

// decodeSweepRequest decodes a /v1/sweep body in one strict pass.
func decodeSweepRequest(data []byte) (SweepRequest, error) {
	var req SweepRequest
	r := jsonread.NewReader(data)
	if r.Object() {
		var seen uint64
		for f := r.Field(sweepFields, &seen); f >= 0; f = r.Field(sweepFields, &seen) {
			switch f {
			case 0:
				req.Model = r.String()
			case 1:
				req.Mode = r.String()
			}
		}
	}
	return req, r.End()
}

// SweepResponse is the POST /v1/sweep result.
type SweepResponse struct {
	Model   string                `json:"model"`
	Mode    core.Mode             `json:"mode"`
	Results []core.PlatformResult `json:"results"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req SweepRequest
	if !s.readRequest(w, r, func(data []byte) (err error) {
		req, err = decodeSweepRequest(data)
		return err
	}) {
		return
	}
	if req.Model == "" {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "model is required")
		return
	}
	if _, ok := models.Lookup(req.Model); !ok {
		s.writeError(w, r, http.StatusNotFound, "unknown_model",
			fmt.Sprintf("unknown model %q (GET /v1/models lists the zoo)", req.Model))
		return
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	results, err := core.PlatformSweepCtx(ctx, req.Model, mode, s.sess.ProfileCtx)
	if err != nil {
		s.writeProfilingError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SweepResponse{Model: req.Model, Mode: mode, Results: results})
}

// writeProfilingError maps a pipeline failure to a response: a request
// core.Resolve refuses → 404 unknown_model/unknown_platform/
// unknown_backend, 422 unsupported or 400 bad_request, deadline → 504,
// client gone → 499 (log-only), a model-graph verification error
// anywhere in the chain → 400 invalid_model, an open circuit → 503
// circuit_open with Retry-After, a transient failure that survived the
// retry budget → 503 upstream_transient with Retry-After, anything
// else → 500.
func (s *Server) writeProfilingError(w http.ResponseWriter, r *http.Request, err error) {
	if verr, ok := graph.AsValidationError(err); ok {
		s.writeErrorDetails(w, r, http.StatusBadRequest, "invalid_model", err.Error(),
			[]*graph.ValidationError{verr})
		return
	}
	var coe *profsession.CircuitOpenError
	switch {
	case errors.Is(err, core.ErrUnknownModel):
		s.writeError(w, r, http.StatusNotFound, "unknown_model", err.Error())
	case errors.Is(err, core.ErrUnknownPlatform):
		s.writeError(w, r, http.StatusNotFound, "unknown_platform", err.Error())
	case errors.Is(err, core.ErrUnknownBackend):
		s.writeError(w, r, http.StatusNotFound, "unknown_backend", err.Error())
	case errors.Is(err, core.ErrUnsupported):
		s.writeError(w, r, http.StatusUnprocessableEntity, "unsupported", err.Error())
	case errors.Is(err, core.ErrInvalidOption):
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
	case errors.As(err, &coe):
		setRetryAfter(w, coe.RetryAfter)
		s.writeError(w, r, http.StatusServiceUnavailable, "circuit_open", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("profiling exceeded the %s request budget", s.cfg.RequestTimeout))
	case errors.Is(err, context.Canceled):
		s.writeError(w, r, statusClientClosedRequest, "canceled", "client closed request")
	case faults.IsTransient(err):
		setRetryAfter(w, time.Second)
		s.writeError(w, r, http.StatusServiceUnavailable, "upstream_transient",
			"profiling failed transiently; retrying may succeed: "+err.Error())
	default:
		s.writeError(w, r, http.StatusInternalServerError, "internal", err.Error())
	}
}

// setRetryAfter sets the Retry-After header to d rounded up to whole
// seconds (the header has one-second resolution; the floor is 1).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// ModelsResponse is the GET /v1/models body.
type ModelsResponse struct {
	Models []models.Info `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, ModelsResponse{Models: models.List()})
}

// PlatformsResponse is the GET /v1/platforms body.
type PlatformsResponse struct {
	Platforms []hardware.Info `json:"platforms"`
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := PlatformsResponse{}
	for _, p := range hardware.List() {
		resp.Platforms = append(resp.Platforms, p.Describe())
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// HealthzResponse is the GET /healthz body: liveness plus the history
// store's status, so a probe can tell "healthy but not recording" from
// "recording and current".
type HealthzResponse struct {
	Status string      `json:"status"`
	Store  StoreHealth `json:"store"`
}

// StoreHealth summarizes the history store for /healthz.
type StoreHealth struct {
	Enabled  bool `json:"enabled"`
	Segments int  `json:"segments,omitempty"`
	Records  int  `json:"records,omitempty"`
	// LastAppendAgeSeconds is the age of the newest stored record
	// (-1 when the store is enabled but empty).
	LastAppendAgeSeconds float64 `json:"last_append_age_seconds,omitempty"`
	// DroppedWrites counts history records lost to a full write queue.
	DroppedWrites int64 `json:"dropped_writes,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := HealthzResponse{Status: "ok"}
	if s.hist != nil {
		st := s.hist.Stats()
		resp.Store = StoreHealth{
			Enabled:              true,
			Segments:             st.Segments,
			Records:              st.Records,
			LastAppendAgeSeconds: -1,
			DroppedWrites:        s.histW.Dropped(),
		}
		if !st.LastAppend.IsZero() {
			resp.Store.LastAppendAgeSeconds = time.Since(st.LastAppend).Seconds()
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.reg.WritePrometheus(w)
}

// TracesResponse is the GET /debug/traces body: the most recent
// profiling-request traces, newest first.
type TracesResponse struct {
	// Capacity is the ring's retention bound; Total counts every trace
	// ever recorded (including evicted ones).
	Capacity int        `json:"capacity"`
	Total    uint64     `json:"total"`
	Traces   []obsTrace `json:"traces"`
}

// obsTrace is one ring entry with its span data and a summary line.
type obsTrace struct {
	Name       string         `json:"name"`
	Began      time.Time      `json:"began"`
	DurationNS time.Duration  `json:"duration_ns"`
	SpanCount  int            `json:"span_count"`
	Dropped    int            `json:"dropped,omitempty"`
	Spans      []obs.SpanData `json:"spans"`
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := TracesResponse{
		Capacity: s.traces.Capacity(),
		Total:    s.traces.Total(),
		Traces:   []obsTrace{},
	}
	for _, t := range s.traces.Snapshot() {
		resp.Traces = append(resp.Traces, obsTrace{
			Name:       t.Name,
			Began:      t.Began,
			DurationNS: t.Duration(),
			SpanCount:  len(t.Spans),
			Dropped:    t.Dropped,
			Spans:      t.Spans,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// DebugHandler returns the opt-in debug mux: net/http/pprof plus the
// trace ring. It is never mounted on the public mux — proofd serves it
// only when started with -debug-addr, on a separate (private) listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	return mux
}

// Registry returns the shared metrics registry.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// ---- lifecycle ----

// ListenAndServe binds addr and serves until ctx is cancelled, then
// drains gracefully (see Serve).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Info("proofd listening", "addr", ln.Addr().String())
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes, endpoints start failing fast with
// 503, and in-flight requests get up to ShutdownTimeout to finish.
// Returns nil on a clean drain, the shutdown context's error when the
// deadline forces connections to abort.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// The history writer drains with the server: pending appends land
	// on disk and the index flushes before Serve returns.
	defer s.closeHistory()
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	s.draining.Store(true)
	s.log.Info("draining", "timeout", s.cfg.ShutdownTimeout.String())
	// The drain deadline must be detached: the serve ctx is already
	// canceled — it is the reason we are shutting down.
	//lint:ignore ctxflow drain deadline outlives the canceled serve ctx
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		s.log.Error("drain deadline exceeded, aborting connections", "err", err.Error())
		hs.Close()
		return err
	}
	s.log.Info("drained")
	return nil
}
