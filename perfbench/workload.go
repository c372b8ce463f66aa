package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"proof/internal/core"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/models"
)

// pair is one (zoo model, platform) combination.
type pair struct{ model, platform string }

// The platforms: one per simulated runtime (trtsim, ortsim, ovsim).
var slicePlatforms = []string{"a100", "xeon-6330", "npu3720"}

// coldPairs is cold-zoo's slice. Each pair's cold profile takes
// 15–25 ms in process and answers a report of 35–110 KB, so the
// pipeline, not the HTTP edge, does most of a request's work, and the
// latencies form one mode around the median. The small CNNs (1–10 ms)
// would put the edge near a fifth of each request; the EfficientNets,
// Swins and SD-UNet (40–500 ms) would form a second mode, and a median
// between two modes swings from run to run.
var coldPairs = []pair{
	{"vit-t", "a100"}, {"vit-s", "a100"}, {"vit-b", "a100"}, {"bert-base", "a100"},
	{"mlp-mixer", "xeon-6330"}, {"shufflenetv2-0.5", "xeon-6330"}, {"shufflenetv2-1.0", "xeon-6330"},
	{"mlp-mixer", "npu3720"}, {"shufflenetv2-0.5", "npu3720"}, {"shufflenetv2-1.0", "npu3720"},
}

// inlineModels are posted as inline graphs on every platform: the
// small CNNs, whose 18–53 KB graphs cost about as much to decode,
// verify and hash as their 1–10 ms pipelines take.
var inlineModels = []string{"resnet-18", "resnet-34", "resnet-50", "mobilenetv2-0.5", "mobilenetv2-1.0", "shufflenetv2-1.0-mod"}

// hotModels give warm-hot its six keys, one per platform each, with
// 26–33 KB reports.
var hotModels = []string{"resnet-50", "mobilenetv2-1.0"}

var sliceBatches = []int{1, 2, 4, 8, 16, 32}

// workloadSpec names one workload and the rate its request list is
// sized for: the list never runs out at fewer requests per second.
// Each rate is several times the fastest a 2-vCPU host has served.
type workloadSpec struct {
	name    string
	maxRate int
}

// The workloads; README.md says why each exists.
var workloads = []workloadSpec{
	{"cold-zoo", 1500},
	{"warm-hot", 20000},
	{"inline-graph", 2000},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// request is one distinct profile request with its pre-encoded body.
type request struct {
	model    string // zoo key the request's model comes from
	name     string // the report's "model" field: zoo key or graph name
	platform string
	batch    int
	seed     uint64
	graph    int    // index into requestList.graphs; -1 for a zoo key
	body     []byte // whole body for a zoo key; the tail after the graph for an inline one
	prefix   []byte // the start every response body must have
}

// requestList is a workload's seeded inputs. keys holds the distinct
// requests; warmup and timed index into it, in sending order.
type requestList struct {
	workload string
	keys     []request
	warmup   []int32
	timed    []int32
	// graphs holds each inline graph's JSON, names the name proofd
	// reports it under, and heads its body head, `{"graph":<graph
	// JSON>`, shared by every request that posts it.
	graphs [][]byte
	names  []string
	heads  [][]byte
}

// buildList generates a workload's request list from seed. The timed
// list is long enough for seconds of sending at the workload's
// maxRate; a closed loop stops at the deadline, so a faster program
// simply sends more of the same list.
func buildList(name string, seed uint64, seconds int) (*requestList, error) {
	spec, ok := lookupWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	rng := rand.New(rand.NewPCG(seed, 0x70726f6f66))
	l := &requestList{workload: name}
	switch name {
	case "cold-zoo", "inline-graph":
		pairs := coldPairs
		if name == "inline-graph" {
			if err := l.addGraphs(); err != nil {
				return nil, err
			}
			pairs = nil
			for _, m := range inlineModels {
				for _, plat := range slicePlatforms {
					pairs = append(pairs, pair{m, plat})
				}
			}
		}
		// Seeds count up from a seeded base, so every key is distinct
		// and no report is ever served from the cache. The warm-up
		// holds every pair once; the timed requests come in blocks
		// that hold every (pair, batch) once, in seeded order, so any
		// prefix of the list has the same mix of work, whatever the
		// seed.
		base := rng.Uint64() >> 16
		add := func(pi, batch int) {
			r := request{
				model:    pairs[pi].model,
				platform: pairs[pi].platform,
				batch:    batch,
				seed:     base + uint64(len(l.keys)),
				graph:    -1,
			}
			if name == "inline-graph" {
				r.graph = pi / len(slicePlatforms)
			}
			l.keys = append(l.keys, r)
		}
		for _, pi := range rng.Perm(len(pairs)) {
			l.warmup = append(l.warmup, int32(len(l.keys)))
			add(pi, sliceBatches[rng.IntN(len(sliceBatches))])
		}
		block := len(pairs) * len(sliceBatches)
		for len(l.timed) < spec.maxRate*seconds {
			for _, i := range rng.Perm(block) {
				l.timed = append(l.timed, int32(len(l.keys)))
				add(i/len(sliceBatches), sliceBatches[i%len(sliceBatches)])
			}
		}
	case "warm-hot":
		for _, m := range hotModels {
			for _, plat := range slicePlatforms {
				l.keys = append(l.keys, request{
					model:    m,
					platform: plat,
					batch:    sliceBatches[rng.IntN(len(sliceBatches))],
					seed:     rng.Uint64() >> 16,
					graph:    -1,
				})
			}
		}
		for i := range l.keys {
			l.warmup = append(l.warmup, int32(i))
		}
		for len(l.timed) < spec.maxRate*seconds {
			for _, k := range rng.Perm(len(l.keys)) {
				l.timed = append(l.timed, int32(k))
			}
		}
	}
	for i := range l.keys {
		l.encode(&l.keys[i])
	}
	return l, nil
}

// addGraphs builds every slice model once and encodes it as the
// inline graph proofd would receive from a client export.
func (l *requestList) addGraphs() error {
	for _, m := range inlineModels {
		g, err := models.Build(m)
		if err != nil {
			return err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return fmt.Errorf("encoding %s graph: %w", m, err)
		}
		l.graphs = append(l.graphs, raw)
		l.names = append(l.names, g.Name)
		l.heads = append(l.heads, append([]byte(`{"graph":`), raw...))
	}
	return nil
}

// encode fills r's body and expected response prefix.
func (l *requestList) encode(r *request) {
	tail := `"platform":` + strconv.Quote(r.platform) +
		`,"batch":` + strconv.Itoa(r.batch) +
		`,"seed":` + strconv.FormatUint(r.seed, 10) + `}`
	r.name = r.model
	if r.graph < 0 {
		r.body = []byte(`{"model":` + strconv.Quote(r.model) + `,` + tail)
	} else {
		r.name = l.names[r.graph]
		r.body = []byte(`,` + tail)
	}
	r.prefix = []byte(`{"model":` + strconv.Quote(r.name) + `,"platform":` + strconv.Quote(r.platform) + `,`)
}

// bodyLen is the size of r's request body.
func (l *requestList) bodyLen(r *request) int {
	if r.graph < 0 {
		return len(r.body)
	}
	return len(l.heads[r.graph]) + len(r.body)
}

// options converts r into the core.Options proofd's handler builds
// from its body: the same defaults, CPUClusters 1 included. g is the
// strictly decoded inline graph, nil for a zoo key.
func (r *request) options(g *graph.Graph) core.Options {
	o := core.Options{
		Model:    r.model,
		Platform: r.platform,
		Batch:    r.batch,
		Seed:     r.seed,
		Clocks:   hardware.Clocks{CPUClusters: 1},
	}
	if g != nil {
		o.Model, o.Graph = "", g
	}
	return o
}

// digest hashes the whole list: workload, graphs and every request in
// sending order. Equal seeds give equal digests.
func (l *requestList) digest() string {
	h := sha256.New()
	h.Write([]byte(l.workload))
	for _, g := range l.graphs {
		binary.Write(h, binary.LittleEndian, int64(len(g)))
		h.Write(g)
	}
	for _, order := range [][]int32{l.warmup, l.timed} {
		binary.Write(h, binary.LittleEndian, int64(len(order)))
		for _, i := range order {
			r := &l.keys[i]
			binary.Write(h, binary.LittleEndian, int64(r.graph))
			binary.Write(h, binary.LittleEndian, int64(len(r.body)))
			h.Write(r.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputProps are the list properties a cache-related change can cite.
type inputProps struct {
	requests      int
	repeatShare   float64 // exactly repeat an earlier request
	graphReuse    float64 // reuse an earlier model under another configuration
	distinctKeys  int
	meanReqBytes  float64
	totalReqBytes int64
}

// properties measures the first n timed requests, counting the
// warm-up requests as earlier ones.
func (l *requestList) properties(n int) inputProps {
	if n > len(l.timed) {
		n = len(l.timed)
	}
	seenKey := make(map[int32]bool)
	seenModel := make(map[string]bool)
	for _, i := range l.warmup {
		seenKey[i] = true
		seenModel[l.keys[i].model] = true
	}
	p := inputProps{requests: n}
	var repeats, reuses int
	for _, i := range l.timed[:n] {
		r := &l.keys[i]
		switch {
		case seenKey[i]:
			repeats++
		case seenModel[r.model]:
			reuses++
		}
		seenKey[i] = true
		seenModel[r.model] = true
		p.totalReqBytes += int64(l.bodyLen(r))
	}
	p.distinctKeys = len(seenKey)
	if n > 0 {
		p.repeatShare = float64(repeats) / float64(n)
		p.graphReuse = float64(reuses) / float64(n)
		p.meanReqBytes = float64(p.totalReqBytes) / float64(n)
	}
	return p
}
