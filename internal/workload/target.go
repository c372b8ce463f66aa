package workload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/profsession"
)

// ---- HTTP target ----

// HTTPTarget drives a live proofd over HTTP: each request becomes a
// POST /v1/profile, and the response is classified against the
// serving contract (status codes, Retry-After discipline, structured
// envelopes). Safe for concurrent use.
type HTTPTarget struct {
	// BaseURL is the proofd base, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client executes requests (nil = a dedicated client with a
	// connection pool sized for load generation).
	Client *http.Client
	// SlowDelay is the per-chunk dribble delay for slow-loris request
	// bodies (0 = 2ms).
	SlowDelay time.Duration
}

// NewHTTPTarget builds an HTTP target with a pooled transport.
func NewHTTPTarget(baseURL string) *HTTPTarget {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}
	return &HTTPTarget{
		BaseURL: strings.TrimRight(baseURL, "/"),
		Client:  &http.Client{Transport: tr},
	}
}

// profileBody is the POST /v1/profile payload a load request builds.
type profileBody struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`
	Batch    int    `json:"batch,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Mode     string `json:"mode,omitempty"`
}

// Do executes one request and classifies the response.
func (t *HTTPTarget) Do(ctx context.Context, req Request) Response {
	payload, err := json.Marshal(profileBody{
		Model: req.Model, Platform: req.Platform, Batch: req.Batch,
		Seed: req.Seed, Mode: req.Mode,
	})
	if err != nil {
		return Response{Class: ClassFailed, Violation: "encode request: " + err.Error()}
	}
	var body io.Reader = strings.NewReader(string(payload))
	if req.SlowLoris {
		delay := t.SlowDelay
		if delay <= 0 {
			delay = 2 * time.Millisecond
		}
		// A reader with no known length forces chunked encoding, so
		// the server sees the body arrive one dribble at a time.
		body = &slowReader{ctx: ctx, data: payload, delay: delay}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+"/v1/profile", body)
	if err != nil {
		return Response{Class: ClassFailed, Violation: "build request: " + err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return Response{Class: ClassCanceled}
		}
		return Response{Class: ClassFailed, Violation: "transport error: " + err.Error()}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return Response{Class: ClassCanceled, Status: resp.StatusCode}
		}
		return Response{Class: ClassFailed, Status: resp.StatusCode, Violation: "read body: " + err.Error()}
	}
	return classifyHTTP(req, resp, raw)
}

// classifyHTTP maps one proofd response onto the outcome classes,
// recording contract breaches as violations.
func classifyHTTP(req Request, resp *http.Response, raw []byte) Response {
	out := Response{Status: resp.StatusCode}
	switch resp.StatusCode {
	case http.StatusOK:
		var rep struct {
			Model string `json:"model"`
		}
		if json.Unmarshal(raw, &rep) != nil || rep.Model == "" {
			out.Class = ClassFailed
			out.Violation = fmt.Sprintf("200 with invalid report body: %.80s", raw)
			return out
		}
		if rep.Model != req.Model {
			out.Class = ClassFailed
			out.Violation = fmt.Sprintf("asked %q, got report for %q", req.Model, rep.Model)
			return out
		}
		out.Class = ClassOK
	case http.StatusTooManyRequests:
		out.Class = ClassShed
		if resp.Header.Get("Retry-After") == "" {
			out.Violation = "429 without Retry-After"
		}
	case http.StatusServiceUnavailable:
		out.Class = ClassFailed
		if resp.Header.Get("Retry-After") == "" {
			out.Violation = "503 without Retry-After"
			return out
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(raw, &env) != nil || env.Error.Code == "" {
			out.Violation = fmt.Sprintf("503 without structured envelope: %.80s", raw)
		}
	case http.StatusGatewayTimeout:
		out.Class = ClassFailed
	default:
		out.Class = ClassFailed
		out.Violation = fmt.Sprintf("unexpected status %d: %.120s", resp.StatusCode, raw)
	}
	return out
}

// slowReader dribbles data one byte per delay — a slow-loris client's
// request body. It aborts early when the request context ends.
type slowReader struct {
	ctx   context.Context
	data  []byte
	pos   int
	delay time.Duration
}

func (r *slowReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	if !sleepCtx(r.ctx, r.delay) {
		return 0, r.ctx.Err()
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}

// ---- in-process session target ----

// SessionTarget drives a profsession.Session directly — the
// no-network path for benchmarking the serving stack itself (cache,
// retries, breaker) without HTTP overhead, and for running proofload
// scenarios in process (proofload without -url).
type SessionTarget struct {
	Session *profsession.Session
	// Timeout bounds one request (0 = 60s, mirroring proofd's
	// default request budget).
	Timeout time.Duration
}

// Do executes one request against the session and classifies the
// outcome with the same policy the HTTP edge applies: success,
// structured failure, or canceled.
func (t *SessionTarget) Do(ctx context.Context, req Request) Response {
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return Response{Class: ClassFailed, Violation: err.Error()}
	}
	opts := core.Options{
		Model:    req.Model,
		Platform: req.Platform,
		Batch:    req.Batch,
		Seed:     req.Seed,
		Mode:     mode,
	}
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	_, _, err = t.Session.ProfileOutcome(rctx, opts)
	if err == nil {
		return Response{Class: ClassOK}
	}
	if ctx.Err() != nil {
		return Response{Class: ClassCanceled}
	}
	var coe *profsession.CircuitOpenError
	switch {
	case errors.As(err, &coe), errors.Is(err, context.DeadlineExceeded):
		return Response{Class: ClassFailed}
	default:
		if _, ok := graph.AsValidationError(err); ok {
			// An invalid model in a load mix is a scenario bug, not a
			// server failure: surface it loudly.
			return Response{Class: ClassFailed, Violation: "invalid model in mix: " + err.Error()}
		}
		return Response{Class: ClassFailed}
	}
}
