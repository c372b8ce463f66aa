// Command proofd is the PRoof profiling service: a long-running HTTP
// server exposing the profiling pipeline as a JSON API, with a shared
// report store, admission control, per-request timeouts and graceful
// SIGTERM shutdown.
//
// Endpoints:
//
//	POST /v1/profile    profile one configuration (cached session)
//	POST /v1/sweep      profile a model across every platform
//	GET  /v1/models     list the model zoo
//	GET  /v1/platforms  list the hardware platforms
//	GET  /v1/history    query the persistent profile history (-store-dir)
//	GET  /v1/drift      roofline drift detection vs a baseline revision
//	GET  /healthz       liveness/readiness (503 while draining)
//	GET  /metrics       Prometheus text exposition
//
// Example:
//
//	proofd -addr :8080 &
//	curl -s localhost:8080/v1/profile -d '{"model":"resnet-50","platform":"a100","batch":128}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"proof/internal/core"
	"proof/internal/faults"
	"proof/internal/histstore"
	"proof/internal/profsession"
	"proof/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently executing profiling requests (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "max profiling requests waiting for a slot (0 = 4x max-inflight)")
		queueWait    = flag.Duration("queue-wait", 2*time.Second, "longest a request waits for a slot before 429")
		reqTimeout   = flag.Duration("request-timeout", 60*time.Second, "per-request profiling budget")
		maxBody      = flag.Int64("max-body-bytes", 1<<20, "request body size cap")
		drainTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		cacheCap     = flag.Int("cache-capacity", 0, "session report-store capacity in reports (0 = default 1024)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and /debug/traces on this private address (empty = disabled)")
		traceRing    = flag.Int("trace-ring", 0, "recent request traces retained for GET /debug/traces (0 = default 16)")

		// History: persistent profile store + drift endpoints.
		storeDir     = flag.String("store-dir", "", "persist profile reports to this history store directory (empty = disabled)")
		storeSegment = flag.Int64("store-segment-bytes", 0, "history segment rotation size (0 = 4 MiB)")
		storeQueue   = flag.Int("store-queue", 0, "async history write queue depth; overflow drops records (0 = 256)")
		gitRev       = flag.String("git-rev", "", "code revision stamped onto stored reports (empty = the binary's vcs.revision)")

		// Resilience: retries, per-attempt timeouts, circuit breaking.
		retryAttempts  = flag.Int("retry-attempts", 3, "profiling attempts per execution for transient failures (<= 1 disables retries)")
		retryBase      = flag.Duration("retry-base", 50*time.Millisecond, "delay before the first retry (doubles per attempt, jittered)")
		retryMaxDelay  = flag.Duration("retry-max-delay", 2*time.Second, "cap on the grown retry delay")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "per-attempt timeout (0 = attempts share the request budget)")
		breakThresh    = flag.Int("breaker-threshold", 5, "consecutive failures per (zoo model, platform), or per platform for inline graphs, that open a circuit (0 disables)")
		breakCooldown  = flag.Duration("breaker-cooldown", 10*time.Second, "open-circuit cooldown before a half-open probe")

		// Chaos: inject faults into the live pipeline (testing only).
		faultRate        = flag.Float64("fault-rate", 0, "inject an error into this fraction of pipeline executions (chaos testing; 0 disables)")
		faultTransient   = flag.Float64("fault-transient-share", 1, "fraction of injected errors that are transient (rest permanent)")
		faultLatency     = flag.Duration("fault-latency", 0, "injected latency spike magnitude")
		faultLatencyRate = flag.Float64("fault-latency-rate", 0, "fraction of executions delayed by -fault-latency")
		faultBlowRate    = flag.Float64("fault-blowthrough-rate", 0, "fraction of executions that hang until their deadline")
		faultSeed        = flag.Uint64("fault-seed", 1, "fault injector seed (same seed + sequence = same schedule)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "proofd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	profile := core.ProfileFunc(core.ProfileCtx)
	if *faultRate > 0 || *faultLatencyRate > 0 || *faultBlowRate > 0 {
		inj := faults.New(faults.Config{
			Seed:            *faultSeed,
			ErrorRate:       *faultRate,
			TransientShare:  *faultTransient,
			LatencyRate:     *faultLatencyRate,
			Latency:         *faultLatency,
			BlowthroughRate: *faultBlowRate,
		})
		profile = faults.Wrap(inj, profile)
		logger.Warn("fault injection enabled",
			"error_rate", *faultRate, "transient_share", *faultTransient,
			"latency_rate", *faultLatencyRate, "blowthrough_rate", *faultBlowRate,
			"seed", *faultSeed)
	}
	sess := profsession.NewWithConfig(profsession.Config{
		Capacity: *cacheCap,
		Profile:  profile,
		Retry: profsession.RetryPolicy{
			Attempts:       *retryAttempts,
			Base:           *retryBase,
			MaxDelay:       *retryMaxDelay,
			Jitter:         0.2,
			AttemptTimeout: *attemptTimeout,
		},
		Breaker: profsession.BreakerConfig{
			Threshold: *breakThresh,
			Cooldown:  *breakCooldown,
		},
	})

	var hist *histstore.Store
	if *storeDir != "" {
		var err error
		hist, err = histstore.Open(*storeDir, histstore.Options{SegmentBytes: *storeSegment})
		if err != nil {
			fmt.Fprintf(os.Stderr, "proofd: opening history store %s: %v\n", *storeDir, err)
			os.Exit(1)
		}
		defer hist.Close()
		st := hist.Stats()
		logger.Info("history store open", "dir", *storeDir,
			"records", st.Records, "segments", st.Segments,
			"skipped_records", st.SkippedRecords, "truncated_bytes", st.TruncatedBytes)
	}

	srv := server.New(server.Config{
		Session:         sess,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		RequestTimeout:  *reqTimeout,
		MaxBodyBytes:    *maxBody,
		ShutdownTimeout: *drainTimeout,
		Logger:          logger,
		TraceRingSize:   *traceRing,
		History:         hist,
		HistoryQueue:    *storeQueue,
		GitRev:          *gitRev,
	})
	// SIGTERM (orchestrator stop) and SIGINT (Ctrl-C) both trigger the
	// graceful drain; a second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	// The debug mux (pprof + trace ring) binds a separate, private
	// address and only when asked: profiling endpoints never belong on
	// the public listener.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			logger.Info("proofd debug listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server exited", "err", err.Error())
			}
		}()
		defer dbg.Close()
	}

	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		logger.Error("proofd exited", "err", err.Error())
		os.Exit(1)
	}
}
