// Package obs is PRoof's own observability layer: a small,
// dependency-free tracing and metrics subsystem for profiling the
// profiler. The paper reports the profiler's own overhead (Table 4);
// obs makes that visible at runtime by recording where time goes
// inside the pipeline — model build, backend compile, simulated
// profiling, layer mapping, roofline — as nested spans, and by
// aggregating counters/gauges/histograms in a Registry that proofd and
// the CLIs share.
//
// Design constraints, in priority order:
//
//   - Disabled must be free. When no Tracer is installed in the
//     context, Start returns the context unchanged and a nil *Span;
//     every Span method is nil-safe, and the whole path performs zero
//     heap allocations (guarded by TestNoopTracerZeroAlloc and
//     BenchmarkNoopTracer).
//   - Race-clean. Spans are started and ended from concurrent
//     parallel.MapCtx workers; all shared tracer state is guarded by
//     one mutex, and a Span's attributes are owned by the goroutine
//     that started it until End publishes them.
//   - Bounded. A Tracer retains at most MaxSpans finished spans
//     (excess is counted in Dropped, never stored), so a runaway sweep
//     cannot hold unbounded memory.
//
// Timestamps are monotonic: every span records offsets from the
// tracer's start via the runtime's monotonic clock, so spans order
// correctly even across wall-clock adjustments.
package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultMaxSpans bounds the finished spans one Tracer retains.
const DefaultMaxSpans = 4096

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the immutable record of one finished span.
type SpanData struct {
	// ID is unique within the owning trace; ParentID is 0 for roots.
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Start is the monotonic offset from the trace start.
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Track is the display lane: sequential spans share their
	// parent's track, concurrent siblings get fresh tracks — exactly
	// the property the Chrome trace viewer needs for correct nesting.
	Track int    `json:"track"`
	Error string `json:"error,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// End returns the span's end offset.
func (s SpanData) End() time.Duration { return s.Start + s.Duration }

// Trace is a snapshot of a Tracer's finished spans.
type Trace struct {
	Name string `json:"name"`
	// Began is the wall-clock trace start (span offsets are relative
	// to it).
	Began   time.Time  `json:"began"`
	Spans   []SpanData `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

// Duration is the end offset of the latest-ending span.
func (t *Trace) Duration() time.Duration {
	var d time.Duration
	for _, s := range t.Spans {
		if e := s.End(); e > d {
			d = e
		}
	}
	return d
}

// Find returns the first span with the given name, or nil.
func (t *Trace) Find(name string) *SpanData {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// Tracer collects the spans of one traced operation (one CLI run, one
// proofd request). Safe for concurrent use. The zero value is not
// usable — construct with NewTracer.
type Tracer struct {
	name  string
	began time.Time
	now   func() time.Time // test seam; nil = time.Now

	mu         sync.Mutex
	lastID     uint64
	lastTrack  int
	rootActive int
	finished   []SpanData
	dropped    int
	maxSpans   int
}

// NewTracer creates an enabled tracer. name labels the whole trace
// (the Chrome export's process name).
func NewTracer(name string) *Tracer {
	return &Tracer{name: name, began: time.Now(), maxSpans: DefaultMaxSpans}
}

// Name returns the trace label.
func (t *Tracer) Name() string { return t.name }

// SetMaxSpans bounds the finished spans retained (<= 0 keeps the
// current bound). Call before tracing starts.
func (t *Tracer) SetMaxSpans(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

func (t *Tracer) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// Snapshot copies the finished spans, ordered by start offset (ties by
// span ID). In-progress spans are not included, so a snapshot taken
// mid-operation is always internally consistent.
func (t *Tracer) Snapshot() *Trace {
	t.mu.Lock()
	spans := make([]SpanData, len(t.finished))
	copy(spans, t.finished)
	tr := &Trace{Name: t.name, Began: t.began, Spans: spans, Dropped: t.dropped}
	t.mu.Unlock()
	sort.SliceStable(tr.Spans, func(i, j int) bool {
		if tr.Spans[i].Start != tr.Spans[j].Start {
			return tr.Spans[i].Start < tr.Spans[j].Start
		}
		return tr.Spans[i].ID < tr.Spans[j].ID
	})
	return tr
}

// Span is one in-progress traced region. A nil *Span is a valid no-op:
// every method returns immediately, so call sites never need to check
// whether tracing is enabled.
type Span struct {
	tracer *Tracer
	parent *Span
	id     uint64
	name   string
	start  time.Duration
	track  int

	// attrs and err are owned by the starting goroutine until End.
	attrs []Attr
	err   error

	// activeKids and ended are guarded by tracer.mu.
	activeKids int
	ended      bool
}

// startSpan creates and registers a child of parent (nil = root).
// Only the enabled path reaches it, so its one allocation is the
// price of tracing, not of the noop path.
func (t *Tracer) startSpan(name string, parent *Span) *Span {
	//lint:ignore hotalloc one Span per started span is the enabled-tracing cost
	s := &Span{tracer: t, parent: parent, name: name}
	t.mu.Lock()
	// Read the clock under the lock that assigns tracks and ends spans,
	// so a span reusing a track starts no earlier than the span that
	// freed it ended.
	s.start = t.clock().Sub(t.began)
	t.lastID++
	s.id = t.lastID
	// Track assignment: a span reuses its parent's display track
	// unless a sibling is still running there — concurrent siblings
	// (fan-out workers) each get a fresh track, sequential stages
	// stack neatly on the parent's.
	switch {
	case parent == nil && t.rootActive == 0:
		s.track = 0
	case parent != nil && parent.activeKids == 0:
		s.track = parent.track
	default:
		t.lastTrack++
		s.track = t.lastTrack
	}
	if parent == nil {
		t.rootActive++
	} else {
		parent.activeKids++
	}
	t.mu.Unlock()
	return s
}

// ID returns the span's trace-unique ID (0 for a nil span).
//
//lint:hotpath
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches a string attribute.
//
//lint:hotpath
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt attaches an integer attribute.
//
//lint:hotpath
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SetError records err as the span's error status (nil err is
// ignored; the first non-nil error wins).
//
//lint:hotpath
func (s *Span) SetError(err error) {
	if s == nil || err == nil || s.err != nil {
		return
	}
	s.err = err
}

// End finishes the span, publishing it to the tracer. Idempotent.
//
//lint:hotpath
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	end := t.clock().Sub(t.began)
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.ended = true
	if s.parent == nil {
		t.rootActive--
	} else {
		s.parent.activeKids--
	}
	if len(t.finished) >= t.maxSpans {
		t.dropped++
		t.mu.Unlock()
		return
	}
	sd := SpanData{
		ID:       s.id,
		Name:     s.name,
		Start:    s.start,
		Duration: end - s.start,
		Track:    s.track,
		Attrs:    s.attrs,
	}
	if s.parent != nil {
		sd.ParentID = s.parent.id
	}
	if s.err != nil {
		sd.Error = s.err.Error()
	}
	t.finished = append(t.finished, sd)
	t.mu.Unlock()
}

// EndErr records err (if non-nil) and ends the span — the one-liner
// for `return result, err` sites.
//
//lint:hotpath
func (s *Span) EndErr(err error) {
	s.SetError(err)
	s.End()
}

// ---- context plumbing ----

type tracerCtxKey struct{}
type spanCtxKey struct{}

// WithTracer installs a tracer in the context; spans started from the
// returned context (and its descendants) record into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerCtxKey{}, t)
}

// TracerFrom returns the tracer governing ctx (via the current span or
// a WithTracer installation), or nil.
//
//lint:hotpath
func TracerFrom(ctx context.Context) *Tracer {
	if s, ok := ctx.Value(spanCtxKey{}).(*Span); ok && s != nil {
		return s.tracer
	}
	t, _ := ctx.Value(tracerCtxKey{}).(*Tracer)
	return t
}

// SpanFrom returns the current span, or nil.
//
//lint:hotpath
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Start begins a span named name as a child of the current span (or as
// a root when none). When no tracer is installed, it returns ctx
// unchanged and a nil span — the disabled path allocates nothing.
//
//lint:hotpath
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	var t *Tracer
	if parent != nil {
		t = parent.tracer
	} else if tt, ok := ctx.Value(tracerCtxKey{}).(*Tracer); ok {
		t = tt
	}
	if t == nil {
		return ctx, nil
	}
	s := t.startSpan(name, parent)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}
