package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a set of named metric families — counters, gauges,
// histograms, with optional labels — rendered in the Prometheus text
// exposition format. One registry is meant to be shared by everything
// in a process (proofd's HTTP edge, the profiling session, the
// pipeline stage timings), so the whole stack lands on one /metrics
// page. Registration is idempotent: asking for an existing family
// returns the existing handle, so independent subsystems can wire the
// same registry without coordinating.
//
// All metric operations are lock-cheap (atomics for counters/gauges, a
// short mutex for histograms); nothing here belongs on a per-layer hot
// path, but per-request use is effectively free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// String names the kind for conflict messages (distinguishing the
// render-time *Func kinds that promType collapses).
func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindCounterFunc:
		return "counter func"
	case kindGaugeFunc:
		return "gauge func"
	}
	return "unknown"
}

func (k familyKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	}
	return "gauge"
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name    string
	help    string
	kind    familyKind
	labels  []string
	buckets []float64      // histograms only
	fn      func() float64 // *Func kinds only

	mu     sync.Mutex
	series map[string]metric
	order  []string // insertion-ordered series keys
}

type metric interface {
	render(w io.Writer, fam *family, labelValues []string)
}

// ErrMetricConflict marks a rejected metric registration: the name is
// already taken by a family with a different definition (kind, label
// set, buckets), or by a *Func metric whose closure a re-registration
// would silently drop. It is the runtime counterpart of prooflint's
// metricname analyzer, which catches the same collisions statically.
var ErrMetricConflict = errors.New("conflicting metric registration")

// lookup returns the family named name, creating it on first use.
// Re-registering an identical definition is idempotent (independent
// subsystems wire the same shared registry without coordinating);
// re-registering a conflicting one is an error at register time.
func (r *Registry) lookup(name, help string, kind familyKind, labels []string, buckets []float64, fn func() float64) (*family, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		switch {
		case f.kind != kind:
			return nil, fmt.Errorf("obs: metric %q already registered as a %v, re-registered as a %v: %w",
				name, f.kind, kind, ErrMetricConflict)
		case !slices.Equal(f.labels, labels):
			return nil, fmt.Errorf("obs: metric %q already registered with labels %v, re-registered with %v: %w",
				name, f.labels, labels, ErrMetricConflict)
		case !slices.Equal(f.buckets, buckets):
			return nil, fmt.Errorf("obs: metric %q already registered with different buckets: %w",
				name, ErrMetricConflict)
		case f.fn != nil || fn != nil:
			// A *Func metric's value IS its closure; a duplicate
			// registration would silently keep the first one and drop
			// the second — always a wiring bug.
			return nil, fmt.Errorf("obs: func metric %q registered twice: %w", name, ErrMetricConflict)
		}
		return f, nil
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		fn:      fn,
		series:  make(map[string]metric),
	}
	r.fams[name] = f
	return f, nil
}

// mustLookup is lookup for the handle-returning constructors, whose
// signatures predate error returns: a conflict there is a programming
// error caught in tests (and statically by prooflint), so it panics
// with the registration error.
func (r *Registry) mustLookup(name, help string, kind familyKind, labels []string, buckets []float64) *family {
	f, err := r.lookup(name, help, kind, labels, buckets, nil)
	if err != nil {
		panic(err)
	}
	return f
}

const labelSep = "\x1f"

func (f *family) with(values []string, make func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := make()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// ---- counter ----

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) render(w io.Writer, fam *family, lv []string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, labelString(fam.labels, lv), c.Value())
}

// Counter registers (or returns) an unlabeled counter. A conflicting
// re-registration panics (see mustLookup).
func (r *Registry) Counter(name, help string) *Counter {
	f := r.mustLookup(name, help, kindCounter, nil, nil)
	return f.with(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.mustLookup(name, help, kindCounter, labels, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.with(labelValues, func() metric { return &Counter{} }).(*Counter)
}

// ---- gauge ----

// Gauge is a point-in-time value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(w io.Writer, fam *family, lv []string) {
	fmt.Fprintf(w, "%s%s %g\n", fam.name, labelString(fam.labels, lv), g.Value())
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.mustLookup(name, help, kindGauge, nil, nil)
	return f.with(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family — e.g. one
// circuit-breaker state gauge per (model, platform) key.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.mustLookup(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.with(labelValues, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at render time —
// the natural fit for point-in-time state owned elsewhere (cache size,
// in-flight request count). Registering the same name twice returns
// ErrMetricConflict: unlike the handle-returning kinds there is no
// idempotent reading of a second registration, the new closure would
// just be dropped.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) error {
	_, err := r.lookup(name, help, kindGaugeFunc, nil, nil, fn)
	return err
}

// CounterFunc registers a counter whose value is read at render time
// from an existing lifetime total (session hit/miss counters). Same
// duplicate-registration contract as GaugeFunc.
func (r *Registry) CounterFunc(name, help string, fn func() float64) error {
	_, err := r.lookup(name, help, kindCounterFunc, nil, nil, fn)
	return err
}

// ---- histogram ----

// DefaultLatencyBuckets spans microsecond cache hits to multi-second
// measured-mode pipeline stages (bounds in seconds).
var DefaultLatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency/size distribution.
type Histogram struct {
	buckets []float64 // upper bounds; counts has one extra +Inf slot
	mu      sync.Mutex
	counts  []int64
	sum     float64
	count   int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) render(w io.Writer, fam *family, lv []string) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	// Copy before appending "le": the family's label slice is shared
	// across concurrent renders.
	bnames := append(append([]string{}, fam.labels...), "le")
	bvals := append(append([]string{}, lv...), "")
	var cum int64
	for i, le := range h.buckets {
		cum += counts[i]
		bvals[len(bvals)-1] = trimFloat(le)
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, labelString(bnames, bvals), cum)
	}
	cum += counts[len(h.buckets)]
	bvals[len(bvals)-1] = "+Inf"
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, labelString(bnames, bvals), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", fam.name, labelString(fam.labels, lv), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labelString(fam.labels, lv), count)
}

// Histogram registers (or returns) an unlabeled histogram. nil buckets
// selects DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	f := r.mustLookup(name, help, kindHistogram, nil, buckets)
	return f.with(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family. nil
// buckets selects DefaultLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	return &HistogramVec{r.mustLookup(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.with(labelValues, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

// ---- rendering ----

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series by label values, so the output is
// stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType())
		if f.fn != nil {
			fmt.Fprintf(w, "%s %g\n", f.name, f.fn())
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		f.mu.Unlock()
		sort.Strings(keys)
		for _, key := range keys {
			f.mu.Lock()
			m := f.series[key]
			f.mu.Unlock()
			var lv []string
			if key != "" || len(f.labels) > 0 {
				lv = strings.Split(key, labelSep)
			}
			m.render(w, f, lv)
		}
	}
}

// labelString formats {k1="v1",k2="v2"} (empty for no labels).
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// trimFloat formats a bucket bound without trailing zeros ("0.005").
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// ObserveStages records every span of tr into the registry's
// per-stage latency histogram family, named
// <prefix>_stage_duration_seconds with a "stage" label carrying the
// span name. Span names are drawn from a small fixed vocabulary
// (pipeline stages, session, worker), so cardinality stays bounded.
func ObserveStages(reg *Registry, prefix string, tr *Trace) {
	if reg == nil || tr == nil {
		return
	}
	hv := reg.HistogramVec(prefix+"_stage_duration_seconds",
		"Latency of internal pipeline stages, by span name.", nil, "stage")
	for _, s := range tr.Spans {
		hv.With(s.Name).ObserveDuration(s.Duration)
	}
}
