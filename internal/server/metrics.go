package server

import (
	"errors"
	"strconv"
	"time"

	"proof/internal/obs"
	"proof/internal/profsession"
)

// latencyBuckets are the request-latency histogram upper bounds in
// seconds, spanning cache-hit microseconds to multi-second
// measured-mode profiles.
var latencyBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metrics is the server's view into the shared obs.Registry: the HTTP
// edge counters it updates per request, plus the registration of every
// gauge/counter owned elsewhere (admission control, the profiling
// session) so the whole process lands on one /metrics page.
type metrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec
	duration *obs.HistogramVec
}

// wireMetrics registers the server's metric families into reg. The
// registry may be shared with (or pre-populated by) other subsystems;
// identical re-registration is idempotent by family name, but a
// conflicting one — including wiring two servers' func metrics into
// one registry — is a startup programming error and panics with the
// obs.ErrMetricConflict-wrapping error.
func wireMetrics(reg *obs.Registry, adm *admission, sess *profsession.Session) *metrics {
	m := &metrics{
		reg: reg,
		requests: reg.CounterVec("proofd_requests_total",
			"Finished HTTP requests by path and status code.", "path", "code"),
		duration: reg.HistogramVec("proofd_request_duration_seconds",
			"Request latency by path.", latencyBuckets, "path"),
	}
	err := errors.Join(
		reg.GaugeFunc("proofd_inflight_profiles",
			"Profiling requests currently executing.",
			func() float64 { return float64(adm.inflight.Load()) }),
		reg.GaugeFunc("proofd_inflight_high_water",
			"Maximum concurrently executing profiling requests observed.",
			func() float64 { return float64(adm.highWater.Load()) }),
		reg.GaugeFunc("proofd_queue_depth",
			"Profiling requests waiting for an execution slot.",
			func() float64 { return float64(adm.queued.Load()) }),
		reg.CounterFunc("proofd_admission_rejected_total",
			"Profiling requests shed with 429.",
			func() float64 { return float64(adm.rejected.Load()) }),
		profsession.RegisterMetrics(reg, "proofd", sess),
	)
	if err != nil {
		panic(err)
	}
	return m
}

// observe records one finished request.
func (m *metrics) observe(path string, code int, d time.Duration) {
	m.requests.With(path, strconv.Itoa(code)).Inc()
	m.duration.With(path).ObserveDuration(d)
}
