package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"proof/internal/core"
	"proof/internal/histstore"
	"proof/internal/obs"
)

// History wiring: when Config.History is set, every cache-miss profile
// (the requests that actually executed the pipeline — hits and dedups
// would only duplicate records) is appended asynchronously to the
// persistent store, and the server grows two read endpoints:
//
//	GET /v1/history  — indexed, paged queries over stored reports
//	GET /v1/drift    — roofline drift detection vs a baseline revision
//
// plus the proofd_roofline_drift{model,platform} gauge, refreshed on
// every drift evaluation.

// wireHistory attaches the store, its async writer and the history
// metric families. Called from New only when cfg.History is set.
func (s *Server) wireHistory(cfg Config) {
	s.hist = cfg.History
	s.histW = histstore.NewWriter(s.hist, cfg.HistoryQueue)
	s.histW.OnError = func(err error) {
		s.log.Error("history append failed", "err", err.Error())
	}
	if err := histstore.RegisterMetrics(cfg.Registry, s.hist, s.histW); err != nil {
		panic(err)
	}
	s.driftGauge = cfg.Registry.GaugeVec("proofd_roofline_drift",
		"1 when a series of the (model, platform) pair drifted from its baseline at the last /v1/drift evaluation, else 0.",
		"model", "platform")
}

// resolveGitRev picks the revision stamped onto stored reports: the
// configured one, else the build's vcs.revision, else "unknown" (a
// stable non-empty value so drift grouping still works).
func resolveGitRev(configured string) string {
	if configured != "" {
		return configured
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				if len(kv.Value) > 12 {
					return kv.Value[:12]
				}
				return kv.Value
			}
		}
	}
	return "unknown"
}

// wireBuildInfo registers the constant proofd_build_info gauge; its
// value is always 1 and the interesting data rides in the labels.
func wireBuildInfo(reg *obs.Registry, gitRev string) {
	reg.GaugeVec("proofd_build_info",
		"Constant 1; build identity rides in the labels.",
		"go_version", "git_rev").With(runtime.Version(), gitRev).Set(1)
}

// persistReport enqueues one freshly profiled report for history,
// under the request res it answers. data is the exact JSON the
// response serves — the store's read path returns it byte-identical.
// The record and its copy of data are made here, so a server without a
// store hashes no series and copies no bytes.
func (s *Server) persistReport(res *core.Resolved, report *core.Report, data []byte) {
	if s.histW == nil {
		return
	}
	// data is the response's pooled buffer, reused once the response
	// is written; the async writer keeps its own copy.
	s.histW.Enqueue(histstore.NewMeta(res, report, s.gitRev, time.Now()), bytes.Clone(data))
}

// FlushHistory blocks until every history record enqueued so far is
// on disk or ctx expires (no-op without a store). Tests call it
// before asserting store contents.
func (s *Server) FlushHistory(ctx context.Context) error {
	if s.histW != nil {
		return s.histW.Flush(ctx)
	}
	return nil
}

// closeHistory drains and stops the async writer (the store itself
// belongs to the caller who opened it), bounded by the shutdown
// timeout so a wedged disk cannot hang Serve's return.
func (s *Server) closeHistory() {
	if s.histW == nil {
		return
	}
	// Detached deadline: closeHistory runs after the serve ctx is
	// already canceled.
	//lint:ignore ctxflow the serve ctx is already canceled at this point
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	if err := s.histW.Close(ctx); err != nil {
		s.log.Error("history writer close failed", "err", err.Error())
	}
}

// HistoryResponse is the GET /v1/history body.
type HistoryResponse struct {
	Entries []HistoryEntry `json:"entries"`
	// Total counts every match before paging; Offset/Limit echo the
	// page served.
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

// HistoryEntry is one stored report in a history page: its record ID
// (pass back as ?id= to fetch the full report) plus the indexed meta.
type HistoryEntry struct {
	ID string `json:"id"`
	histstore.Meta
}

const (
	historyDefaultLimit = 50
	historyMaxLimit     = 500
)

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.hist == nil {
		s.writeError(w, r, http.StatusNotFound, "history_disabled",
			"no history store configured (start proofd with -store-dir)")
		return
	}
	q := r.URL.Query()

	// ?id= fetches one stored report verbatim — the bytes proofd
	// originally served, straight off the segment.
	if id := q.Get("id"); id != "" {
		_, body, err := s.hist.GetID(id)
		if errors.Is(err, histstore.ErrUnknownRecord) {
			s.writeError(w, r, http.StatusNotFound, "unknown_record", err.Error())
			return
		}
		if err != nil {
			// The store holds the record but cannot read it.
			s.writeError(w, r, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(append(body, '\n'))
		return
	}

	query := histstore.Query{
		Model:    q.Get("model"),
		Platform: q.Get("platform"),
		GitRev:   q.Get("git_rev"),
		Limit:    historyDefaultLimit,
	}
	var ok bool
	if query.Since, ok = s.parseTimeParam(w, r, q.Get("since"), "since"); !ok {
		return
	}
	if query.Until, ok = s.parseTimeParam(w, r, q.Get("until"), "until"); !ok {
		return
	}
	if query.Offset, ok = s.parseIntParam(w, r, q.Get("offset"), "offset", 0); !ok {
		return
	}
	if query.Limit, ok = s.parseIntParam(w, r, q.Get("limit"), "limit", historyDefaultLimit); !ok {
		return
	}
	// The store reads limit 0 as "no limit", which would bypass the
	// cap: here it asks for the default page, as an absent limit does.
	if query.Limit == 0 {
		query.Limit = historyDefaultLimit
	}
	query.Limit = min(query.Limit, historyMaxLimit)
	entries, total, err := s.hist.Query(query)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	resp := HistoryResponse{Entries: make([]HistoryEntry, len(entries)), Total: total, Offset: query.Offset, Limit: query.Limit}
	for i, e := range entries {
		resp.Entries[i] = HistoryEntry{ID: e.ID, Meta: e.Meta}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.hist == nil {
		s.writeError(w, r, http.StatusNotFound, "history_disabled",
			"no history store configured (start proofd with -store-dir)")
		return
	}
	q := r.URL.Query()
	opts := histstore.DriftOptions{
		BaselineGitRev:   q.Get("baseline_git_rev"),
		BaselineDescHash: q.Get("baseline_descriptor_hash"),
	}
	if raw := q.Get("threshold"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v <= 0 || v >= 1 {
			s.writeError(w, r, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("threshold must be a relative change in (0, 1), got %q", raw))
			return
		}
		opts.RelThreshold = v
	}
	metas, err := s.hist.Metas(histstore.Query{Model: q.Get("model"), Platform: q.Get("platform")})
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	rep := histstore.ComputeDrift(metas, opts)
	// A (model, platform) pair drifted when any of its series did.
	drifted := map[[2]string]bool{}
	for _, k := range rep.Keys {
		pair := [2]string{k.Model, k.Platform}
		drifted[pair] = drifted[pair] || k.Drifted
	}
	for pair, d := range drifted {
		v := 0.0
		if d {
			v = 1
		}
		s.driftGauge.With(pair[0], pair[1]).Set(v)
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// parseTimeParam parses an optional RFC 3339 query parameter,
// answering 400 itself on a malformed value.
func (s *Server) parseTimeParam(w http.ResponseWriter, r *http.Request, raw, name string) (time.Time, bool) {
	if raw == "" {
		return time.Time{}, true
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%s must be RFC 3339 (like 2026-08-08T00:00:00Z): %v", name, err))
		return time.Time{}, false
	}
	return t, true
}

// parseIntParam parses an optional non-negative integer parameter.
func (s *Server) parseIntParam(w http.ResponseWriter, r *http.Request, raw, name string, def int) (int, bool) {
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		s.writeError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%s must be a non-negative integer, got %q", name, raw))
		return 0, false
	}
	return v, true
}
