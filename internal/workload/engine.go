package workload

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"proof/internal/obs"
)

// RunOptions tunes one execution of a plan.
type RunOptions struct {
	// Record, when non-nil, receives the issued requests as a JSONL
	// trace (see TraceEntry) — capture now, replay later.
	Record io.Writer
}

// maxViolationDetail bounds the verbatim violation messages a Result
// retains; the full count is always in ViolationCount.
const maxViolationDetail = 64

// Run executes a compiled plan against a target and tallies the
// outcome. The schedule is fixed by the plan; Run adds only real time:
// closed-loop clients self-pace on responses (plus think time),
// open-loop arrivals fire at their planned offsets regardless of how
// the target is doing. Cancellation of ctx stops issuing new requests
// and cancels in-flight ones; the partial Result is still returned.
func Run(ctx context.Context, p *Plan, tgt Target, opts RunOptions) (*Result, error) {
	if p.Requests() == 0 {
		return nil, fmt.Errorf("workload: plan has no requests")
	}
	eng := &engine{
		tgt:     tgt,
		beh:     p.Scenario.Behavior,
		lat:     obs.NewDigest(),
		started: time.Now(),
	}
	if opts.Record != nil {
		eng.rec = &recorder{}
	}

	var wg sync.WaitGroup
	if p.open {
		// Open loop: one dispatcher walks the schedule; every arrival
		// gets its own goroutine so a slow response never delays the
		// next arrival — that pressure is the point of open loop.
		for i := range p.arrivals {
			pl := p.arrivals[i]
			if !sleepCtx(ctx, pl.offset-time.Since(eng.started)) {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng.issue(ctx, pl)
			}()
		}
	} else {
		think := p.Scenario.Arrivals.Think.D()
		for c := range p.clients {
			stream := p.clients[c]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range stream {
					if ctx.Err() != nil {
						return
					}
					eng.issue(ctx, stream[i])
					if i < len(stream)-1 && !sleepCtx(ctx, think) {
						return
					}
				}
			}()
		}
	}
	wg.Wait()

	res := eng.result(p)
	if eng.rec != nil {
		if err := WriteTrace(opts.Record, eng.rec.sorted()); err != nil {
			return res, fmt.Errorf("workload: writing trace: %w", err)
		}
	}
	return res, nil
}

// engine is the mutable state of one run.
type engine struct {
	tgt     Target
	beh     Behavior
	rec     *recorder
	started time.Time

	lat *obs.Digest // ok latencies

	requests, ok, shed, failed, canceled atomic.Int64
	violationCount                       atomic.Int64

	mu         sync.Mutex
	violations []string
}

// issue executes one planned request and tallies its outcome.
func (e *engine) issue(ctx context.Context, pl planned) {
	req := pl.req
	req.SlowLoris = pl.slow

	rctx := ctx
	cancel := func() {}
	if pl.cancel {
		after := e.beh.CancelAfter.D()
		if after <= 0 {
			after = time.Millisecond
		}
		rctx, cancel = context.WithTimeout(ctx, after)
	}
	defer cancel()

	if e.rec != nil {
		e.rec.add(TraceEntry{Offset: Duration(time.Since(e.started)), Request: pl.req})
	}
	e.requests.Add(1)
	start := time.Now()
	resp := e.tgt.Do(rctx, req)
	elapsed := time.Since(start)

	switch resp.Class {
	case ClassOK:
		e.ok.Add(1)
		e.lat.Observe(elapsed)
	case ClassShed:
		e.shed.Add(1)
	case ClassCanceled:
		e.canceled.Add(1)
	default:
		e.failed.Add(1)
	}
	// A cancel-happy client that hung up cannot complain about what it
	// never read; everyone else's violations count.
	if resp.Violation != "" && !(pl.cancel && rctx.Err() != nil) {
		e.violationCount.Add(1)
		e.mu.Lock()
		if len(e.violations) < maxViolationDetail {
			e.violations = append(e.violations, resp.Violation)
		}
		e.mu.Unlock()
	}
}

// result snapshots the tallies into a Result.
func (e *engine) result(p *Plan) *Result {
	elapsed := time.Since(e.started)
	rps := 0.0
	if elapsed > 0 {
		rps = float64(e.ok.Load()) / elapsed.Seconds()
	}
	e.mu.Lock()
	viol := append([]string(nil), e.violations...)
	e.mu.Unlock()
	return &Result{
		Scenario:       p.Scenario.Name,
		Seed:           p.Seed,
		ScheduleDigest: p.Digest(),
		Requests:       e.requests.Load(),
		OK:             e.ok.Load(),
		Shed:           e.shed.Load(),
		Failed:         e.failed.Load(),
		Canceled:       e.canceled.Load(),
		Violations:     viol,
		ViolationCount: e.violationCount.Load(),
		Latency: LatencySummary{
			Count: e.lat.Count(),
			Mean:  Duration(e.lat.Mean()),
			P50:   Duration(e.lat.Quantile(0.50)),
			P99:   Duration(e.lat.Quantile(0.99)),
			P999:  Duration(e.lat.Quantile(0.999)),
			Max:   Duration(e.lat.Max()),
		},
		Elapsed:       Duration(elapsed),
		ThroughputRPS: rps,
	}
}
