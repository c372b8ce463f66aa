package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"proof/internal/profsession"
)

// connections is the closed loop's client count: each keeps one
// keep-alive connection and sends its next request when the previous
// reply has been read. It is fixed, not read from the host, so runs on
// different machines do the same thing.
const connections = 2

// setups is how many times a run starts proofd and warms it up; the
// last one serves the timed phase. setup_s is their median: over ten
// runs it spread less than half as much as the first setup alone.
const setups = 15

// sampleChecks is how many timed responses per run are compared byte
// for byte with an in-process profile of the same key.
const sampleChecks = 8

// replyClass is a response's status and X-Cache outcome.
type replyClass struct {
	status int
	cache  string
}

func (c replyClass) String() string { return fmt.Sprintf("%d/%s", c.status, c.cache) }

// tally counts requests by outcome.
type tally struct {
	attempted, failed int
	classes           map[replyClass]int
	failures          map[string]int // failure class → count
	firstFailure      string
}

func newTally() tally {
	return tally{classes: map[replyClass]int{}, failures: map[string]int{}}
}

// add counts one request; fail is its failure class, "" for none, and
// r names it in the first failure's message.
func (t *tally) add(rep reply, fail string, r *request) {
	t.attempted++
	if rep.status != 0 {
		t.classes[replyClass{rep.status, rep.cache}]++
	}
	if fail != "" {
		t.failed++
		t.failures[fail]++
		if t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf("%s: %s on %s batch %d seed %d", fail, r.name, r.platform, r.batch, r.seed)
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.classes {
		t.classes[k] += v
	}
	for k, v := range o.failures {
		t.failures[k] += v
	}
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

func (t *tally) ok() int { return t.attempted - t.failed }

// wantCache is the X-Cache outcome every timed request must get.
func wantCache(workload string) string {
	if workload == "warm-hot" {
		return "hit"
	}
	return "miss"
}

// setupResult is one proofd start plus warm-up.
type setupResult struct {
	d       *daemon
	elapsed time.Duration
	speed   float64          // the probe's speed right after the setup
	bodies  map[int32][]byte // warm-up response per key (warm-hot's reference bodies)
}

// setUp starts proofd and sends the workload's warm-up requests, one
// at a time: for warm-hot these are the misses that fill the cache.
// Once proofd is idle again the probe times the host.
func setUp(ctx context.Context, bin string, l *requestList, probe *prober, t *tally) (setupResult, error) {
	start := time.Now()
	d, err := startDaemon(ctx, bin)
	if err != nil {
		return setupResult{}, err
	}
	res := setupResult{d: d, bodies: map[int32][]byte{}}
	var buf bytes.Buffer
	for _, i := range l.warmup {
		r := &l.keys[i]
		rep, err := d.post(l, r, &buf)
		if err != nil {
			t.add(rep, "transport", r)
			continue
		}
		t.add(rep, checkReply(rep, r, "miss"), r)
		res.bodies[i] = bytes.Clone(rep.body)
	}
	res.elapsed = time.Since(start)
	err = d.waitIdle(ctx)
	if err == nil {
		res.speed, err = probe.run(probeTime)
	}
	if err != nil {
		d.stop()
		return setupResult{}, err
	}
	return res, nil
}

// setupSeconds is the median setup time, each scaled to the reference
// host by the probe taken right after it unless unscaled.
func setupSeconds(runs []setupResult, unscaled bool) float64 {
	times := make([]float64, len(runs))
	for i, r := range runs {
		times[i] = r.elapsed.Seconds()
		if !unscaled {
			times[i] *= r.speed / refSpeed
		}
	}
	return median(times)
}

// phase is what the timed phase measured.
type phase struct {
	tally
	wall      time.Duration
	latMS     []float64 // successful requests' latencies, sorted
	proofdCPU time.Duration
	respBytes int64
	samples   map[int][]byte // timed position → response body, for the byte checks
	genCPU    time.Duration
	steal     float64 // share of host CPU stolen
	memBefore map[string]uint64
	memAfter  map[string]uint64
	peakRSS   uint64 // KiB
	heapAfter int    // successful requests served when the live heap was read
	// topUpTally counts the untimed requests sent after the timed
	// phase, before the live heap is read.
	topUpTally tally
}

// runTimed drives the closed loop against d for seconds, cycling
// nothing: each client takes the next unsent request of the timed
// list until the deadline.
func runTimed(ctx context.Context, d *daemon, l *requestList, ref map[int32][]byte, seconds int, seed uint64) (*phase, error) {
	samplePos := samplePositions(seed, len(l.timed))
	want := wantCache(l.workload)
	p := &phase{tally: newTally(), samples: map[int][]byte{}}

	var err error
	if p.memBefore, err = d.memStats(false); err != nil {
		return nil, err
	}
	host0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	cpu0, err := pidCPU(d.pid())
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()

	type worker struct {
		tally
		latMS   []float64
		bytes   int64
		samples map[int][]byte
	}
	workers := make([]worker, connections)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	for w := range workers {
		workers[w] = worker{tally: newTally(), samples: map[int][]byte{}}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				pos := int(next.Add(1) - 1)
				if pos >= len(l.timed) {
					return
				}
				key := l.timed[pos]
				r := &l.keys[key]
				t0 := time.Now()
				rep, err := d.post(l, r, &buf)
				lat := time.Since(t0)
				if err != nil {
					w.add(rep, "transport", r)
					continue
				}
				fail := checkReply(rep, r, want)
				if fail == "" && ref != nil && !bytes.Equal(rep.body, ref[key]) {
					fail = "body"
				}
				w.add(rep, fail, r)
				if fail != "" {
					continue
				}
				w.latMS = append(w.latMS, ms(lat))
				w.bytes += int64(len(rep.body))
				if samplePos[pos] {
					w.samples[pos] = bytes.Clone(rep.body)
				}
			}
		}(&workers[w])
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.genCPU = selfCPU() - gen0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := pidCPU(d.pid())
	if err != nil {
		return nil, err
	}
	host1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	p.proofdCPU = time.Duration(cpu1-cpu0) * time.Second / clockTicks
	if host1.total > host0.total {
		p.steal = float64(host1.steal-host0.steal) / float64(host1.total-host0.total)
	}
	for i := range workers {
		w := &workers[i]
		p.merge(w.tally)
		p.latMS = append(p.latMS, w.latMS...)
		p.respBytes += w.bytes
		for pos, b := range w.samples {
			p.samples[pos] = b
		}
	}
	sort.Float64s(p.latMS)

	// Mallocs and TotalAlloc count the timed phase only.
	if p.memAfter, err = d.memStats(false); err != nil {
		return nil, err
	}
	if err := p.topUp(ctx, d, l, int(next.Load())); err != nil {
		return nil, err
	}
	if p.topUpTally.failed > 0 {
		return p, nil
	}
	// Two forced collections: the first moves sync.Pool contents to
	// their victim caches, the second frees them.
	if _, err = d.memStats(true); err != nil {
		return nil, err
	}
	heap, err := d.memStats(true)
	if err != nil {
		return nil, err
	}
	p.memAfter["HeapAlloc"] = heap["HeapAlloc"]
	if p.peakRSS, err = peakRSS(d.pid()); err != nil {
		return nil, err
	}
	return p, nil
}

// topUp sends the timed list on from position next, one request at a
// time and untimed, until the timed phase and the top-up together have
// served as many successful requests as the warm-up plus the session's
// last-known-good store holds (4x the 256-entry report cache). Only
// then is proofd's live heap read: both stores are full by then, so a
// slow program's heap is read at the same steady state as a fast one's.
func (p *phase) topUp(ctx context.Context, d *daemon, l *requestList, next int) error {
	want := wantCache(l.workload)
	steady := 4*profsession.DefaultCapacity + len(l.warmup)
	p.topUpTally = newTally()
	var buf bytes.Buffer
	served := p.ok()
	for ; served < steady && next < len(l.timed); next++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := &l.keys[l.timed[next]]
		rep, err := d.post(l, r, &buf)
		if err != nil {
			p.topUpTally.add(rep, "transport", r)
			return nil
		}
		fail := checkReply(rep, r, want)
		p.topUpTally.add(rep, fail, r)
		if fail != "" {
			return nil
		}
		served++
	}
	p.heapAfter = served
	return nil
}

// samplePositions picks the seeded timed positions whose responses
// are kept for the byte-for-byte check. They lie among the first 256
// positions, which every run reaches.
func samplePositions(seed uint64, n int) map[int]bool {
	rng := rand.New(rand.NewPCG(seed, 0x73616d706c65))
	limit := min(n, 256)
	out := map[int]bool{}
	for len(out) < min(sampleChecks, limit) {
		out[rng.IntN(limit)] = true
	}
	return out
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
