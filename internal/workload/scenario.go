package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Behavior declares how clients misbehave. Both knobs select every
// N-th request of a stream (a virtual client in closed loop, the
// arrival sequence in open loop), so misbehavior is part of the
// deterministic plan, not a coin flip at execution time.
type Behavior struct {
	// CancelEvery > 0 makes every N-th request a cancel-happy client:
	// it abandons the response CancelAfter after issuing (default
	// 1ms). The server must reclaim the slot and execution.
	CancelEvery int      `json:"cancel_every,omitempty"`
	CancelAfter Duration `json:"cancel_after,omitempty"`
	// SlowEvery > 0 makes every N-th request a slow-loris client: its
	// request body dribbles out one byte chunk per SlowDelay (default
	// 2ms) — only meaningful against an HTTP target, which must not
	// let slow writers starve everyone else.
	SlowEvery int      `json:"slow_every,omitempty"`
	SlowDelay Duration `json:"slow_delay,omitempty"`
}

// Scenario is one declarative load scenario: when requests fire
// (Arrivals), what they ask for (Mix), how clients misbehave
// (Behavior), and the budgets the run is graded against (SLO).
// Scenarios are plain JSON on disk (see Load) and plain Go structs in
// tests — the chaos suite builds its storm from the same type.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the scenario's default schedule seed; callers may
	// override it (proofload -seed). Same seed, same schedule.
	Seed     uint64   `json:"seed,omitempty"`
	Arrivals Arrivals `json:"arrivals"`
	Mix      Mix      `json:"mix"`
	Behavior Behavior `json:"behavior,omitempty"`
	SLO      SLO      `json:"slo,omitempty"`
}

// Validate rejects scenarios the engine cannot execute.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("workload: scenario needs a name")
	}
	if err := sc.Arrivals.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if sc.Arrivals.Kind != KindReplay {
		if err := sc.Mix.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	return nil
}

// Load reads one scenario from a JSON file, strictly (unknown fields
// are errors — a typoed budget must not silently grade as "no budget").
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ---- builtin scenario library ----

// zooMix is the three-model mix the chaos suite has always stormed
// with: distinct seeds multiply each model into 16 cache keys so the
// storm keeps executing the faulty pipeline instead of coasting on
// the cache.
func zooMix(seeds int) Mix {
	return Mix{Items: []Item{
		{Model: "resnet-50", Platform: "a100", Batch: 8, Seeds: seeds},
		{Model: "resnet-18", Platform: "a100", Batch: 8, Seeds: seeds},
		{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 8, Seeds: seeds},
	}}
}

// builtins is the named scenario library. Durations are kept short:
// these run in CI and tests; a real soak just scales the numbers in a
// scenario file.
var builtins = map[string]*Scenario{
	// smoke: the CI scenario — a short closed loop over cached
	// configurations with tight-but-safe budgets. Everything must
	// succeed.
	"smoke": {
		Name:        "smoke",
		Description: "short closed-loop sanity run over three cached configurations",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindClosed, Clients: 4, Requests: 12},
		Mix:         zooMix(2),
		SLO: SLO{
			P99:         Duration(5 * time.Second),
			ErrorBudget: 0,
		},
	},
	// bench-serving: the committed perf-trajectory point
	// (BENCH_serving.json). One configuration, fixed request count:
	// the first request is the only pipeline execution, everything
	// after is the cache-hit path — the number future perf PRs move.
	"bench-serving": {
		Name:        "bench-serving",
		Description: "cache-hit path benchmark: one configuration, 1000 requests, 4 closed-loop clients",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindClosed, Clients: 4, Requests: 250},
		Mix: Mix{Items: []Item{
			{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 8, Seeds: 1},
		}},
		SLO: SLO{
			P50:         Duration(50 * time.Millisecond),
			P99:         Duration(250 * time.Millisecond),
			P999:        Duration(time.Second),
			ErrorBudget: 0,
		},
	},
	// poisson: sustained open-loop arrivals at a fixed rate.
	"poisson": {
		Name:        "poisson",
		Description: "open-loop Poisson arrivals at 300 req/s for 2s",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindPoisson, Rate: 300, Duration: Duration(2 * time.Second)},
		Mix:         zooMix(4),
		SLO: SLO{
			P99:         Duration(5 * time.Second),
			ErrorBudget: 0.01,
		},
	},
	// hot-key: one (model, platform) takes 90% of open-loop traffic.
	"hot-key": {
		Name:        "hot-key",
		Description: "Poisson arrivals with one (model, platform) taking 90% of traffic",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindPoisson, Rate: 300, Duration: Duration(2 * time.Second)},
		Mix: Mix{
			HotShare: 0.9,
			Items: []Item{
				{Model: "resnet-50", Platform: "a100", Batch: 8, Seeds: 1},
				{Model: "resnet-18", Platform: "a100", Batch: 8, Seeds: 8},
				{Model: "mobilenetv2-0.5", Platform: "a100", Batch: 8, Seeds: 8},
			},
		},
		SLO: SLO{
			P99:         Duration(5 * time.Second),
			ErrorBudget: 0.01,
		},
	},
	// ramp: a compressed diurnal curve, trough to peak.
	"ramp": {
		Name:        "ramp",
		Description: "diurnal ramp from 50 to 500 req/s over 2s",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindRamp, StartRate: 50, EndRate: 500, Duration: Duration(2 * time.Second)},
		Mix:         zooMix(4),
		SLO: SLO{
			P99:         Duration(5 * time.Second),
			ErrorBudget: 0.01,
		},
	},
	// flash-crowd: steady state with a 10x burst in the middle.
	"flash-crowd": {
		Name:        "flash-crowd",
		Description: "100 req/s baseline with a 1000 req/s flash crowd for 500ms",
		Seed:        1,
		Arrivals: Arrivals{
			Kind: KindFlash, BaseRate: 100, PeakRate: 1000,
			Duration: Duration(2 * time.Second), BurstStart: Duration(750 * time.Millisecond), BurstLen: Duration(500 * time.Millisecond),
		},
		Mix: zooMix(4),
		SLO: SLO{
			P99:         Duration(5 * time.Second),
			ErrorBudget: 0.02,
		},
	},
	// slow-loris: closed loop where a third of clients dribble their
	// request bodies and a seventh hang up early.
	"slow-loris": {
		Name:        "slow-loris",
		Description: "closed loop with slow-loris bodies and cancel-happy clients",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindClosed, Clients: 6, Requests: 10},
		Mix:         zooMix(2),
		Behavior: Behavior{
			SlowEvery:   3,
			SlowDelay:   Duration(2 * time.Millisecond),
			CancelEvery: 7,
			CancelAfter: Duration(time.Millisecond),
		},
		SLO: SLO{
			P99:         Duration(5 * time.Second),
			ErrorBudget: 0,
		},
	},
	// chaos-storm: the seeded 30%-transient fault storm the chaos
	// suite (internal/server/chaos_test.go) drives through the full
	// HTTP stack. The fault injection itself is server-side
	// (faults.New in the test / -fault-* on proofd); this scenario is
	// the traffic half: 8 closed-loop clients, 25 requests each,
	// every 7th client request abandoned, over 48 distinct cache keys.
	"chaos-storm": {
		Name:        "chaos-storm",
		Description: "closed-loop storm over 48 cache keys with cancel-happy clients (pair with 30% transient fault injection)",
		Seed:        1,
		Arrivals:    Arrivals{Kind: KindClosed, Clients: 8, Requests: 25},
		Mix:         zooMix(16),
		Behavior: Behavior{
			CancelEvery: 7,
			CancelAfter: Duration(time.Millisecond),
		},
		// No latency budgets: the chaos suite grades the resilience
		// contract (every request resolves, no slot leaks), not speed.
	},
}

// Builtin returns a deep copy of a named builtin scenario, so callers
// may tweak budgets or seeds without mutating the library.
func Builtin(name string) (*Scenario, bool) {
	sc, ok := builtins[name]
	if !ok {
		return nil, false
	}
	c := *sc
	c.Mix.Items = append([]Item(nil), sc.Mix.Items...)
	return &c, true
}

// BuiltinNames lists the builtin scenario names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
