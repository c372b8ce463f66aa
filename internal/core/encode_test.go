package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"proof/internal/roofline"
)

// reportGen draws random reports for the encoder's differential tests.
// Strings and floats come from str and float; every slice is nil,
// empty or filled at random, at every level, and every duration may be
// zero or negative.
type reportGen struct {
	rng   *rand.Rand
	str   func() string
	float func() float64
}

// edgeStrings hold the escaping edges: HTML characters, quotes,
// backslashes, control bytes, U+2028/U+2029 (as UTF-8 bytes) and
// invalid UTF-8.
var edgeStrings = []string{
	"", "conv1/Conv+Relu", "<script>&amp;</script>", `say "hi" \ back\slash`,
	"ctl \x00\x01\x07\b\f\n\r\t\x1f\x7f", "sep\xe2\x80\xa8line\xe2\x80\xa9para", "bad \xff\xfe \xc3 \xed\xa0\x80 utf8",
	"naïve 😀 ünïcode", "\xef\xbf\xbd", "dwconv", "memory", "compute", "predicted",
}

// edgeFloats hold the format edges: signed zero, subnormals, and both
// sides of the 1e-6 and 1e21 switches to exponent form. All are finite:
// poison adds the non-finite values.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e-9, 1.5e-10,
	1e20, 1e21, -1e21, 1e22, 999999999999999999999.0, math.MaxFloat64,
	0.1, 1.0 / 3, 123456789.125, 2e9, 1.349895e12,
}

// randomGen draws strings and finite floats from the edges half the
// time and from random bytes and bit patterns otherwise.
func randomGen(rng *rand.Rand) reportGen {
	return reportGen{
		rng: rng,
		str: func() string {
			if rng.IntN(2) == 0 {
				return edgeStrings[rng.IntN(len(edgeStrings))]
			}
			b := make([]byte, rng.IntN(12))
			for i := range b {
				b[i] = byte(rng.Uint32())
			}
			return string(b)
		},
		float: func() float64 {
			if rng.IntN(2) == 0 {
				return edgeFloats[rng.IntN(len(edgeFloats))]
			}
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
					return f
				}
			}
		},
	}
}

func (g reportGen) duration() time.Duration {
	switch g.rng.IntN(4) {
	case 0:
		return 0
	case 1:
		return -time.Duration(g.rng.Int64())
	}
	return time.Duration(g.rng.Int64())
}

func (g reportGen) strings() []string {
	switch g.rng.IntN(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	ss := make([]string, 1+g.rng.IntN(3))
	for i := range ss {
		ss[i] = g.str()
	}
	return ss
}

func (g reportGen) point() roofline.Point {
	return roofline.Point{
		Name: g.str(), AI: g.float(), FLOPS: g.float(), Bandwidth: g.float(),
		Latency: g.duration(), Share: g.float(),
		FLOP: int64(g.rng.Uint64()), Bytes: int64(g.rng.Uint64()),
		Category: g.str(), Bound: g.str(),
	}
}

func (g reportGen) layer() LayerReport {
	l := LayerReport{
		Name: g.str(), IsReformat: g.rng.IntN(2) == 0,
		OriginalNodes: g.strings(), OpTypes: g.strings(),
		Category: g.str(), Point: g.point(), ExecutionBound: g.str(),
	}
	if n := g.rng.IntN(4); n > 0 {
		l.Kernels = make([]KernelReport, n-1) // n == 1: empty, not nil
		for i := range l.Kernels {
			l.Kernels[i] = KernelReport{Name: g.str(), Latency: g.duration()}
		}
	}
	return l
}

func (g reportGen) report() *Report {
	r := &Report{
		Model: g.str(), Platform: g.str(), Backend: g.str(), Batch: int(int64(g.rng.Uint64())),
		DType: g.str(), Mode: Mode(g.str()),
		Roofline: roofline.Model{
			Platform: g.str(), DType: g.str(),
			PeakFLOPS: g.float(), PeakBW: g.float(), TheoreticalFLOPS: g.float(), TheoreticalBW: g.float(),
		},
		EndToEnd:     g.point(),
		TotalLatency: g.duration(), Throughput: g.float(), ProfilingOverhead: g.duration(),
		UtilCompute: g.float(), UtilMem: g.float(), PowerW: g.float(),
		NodeCount: int(int64(g.rng.Uint64())), ParamsM: g.float(),
	}
	if n := g.rng.IntN(4); n > 0 {
		r.Roofline.ExtraBWLines = make([]roofline.BWLine, n-1)
		for i := range r.Roofline.ExtraBWLines {
			r.Roofline.ExtraBWLines[i] = roofline.BWLine{Label: g.str(), BW: g.float()}
		}
	}
	if n := g.rng.IntN(6); n > 0 {
		r.Layers = make([]LayerReport, n-1)
		for i := range r.Layers {
			r.Layers[i] = g.layer()
		}
	}
	return r
}

// poison sets one float of r, chosen at random, to a non-finite value.
// Every site but a point's ai makes encoding/json fail; a non-finite ai
// encodes as null.
func poison(rng *rand.Rand, r *Report) {
	sites := []*float64{
		&r.Throughput, &r.UtilCompute, &r.UtilMem, &r.PowerW, &r.ParamsM,
		&r.Roofline.PeakFLOPS, &r.Roofline.PeakBW, &r.Roofline.TheoreticalFLOPS, &r.Roofline.TheoreticalBW,
		&r.EndToEnd.AI, &r.EndToEnd.FLOPS, &r.EndToEnd.Bandwidth, &r.EndToEnd.Share,
	}
	for i := range r.Roofline.ExtraBWLines {
		sites = append(sites, &r.Roofline.ExtraBWLines[i].BW)
	}
	for i := range r.Layers {
		p := &r.Layers[i].Point
		sites = append(sites, &p.AI, &p.FLOPS, &p.Bandwidth, &p.Share)
	}
	*sites[rng.IntN(len(sites))] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.IntN(3)]
}

// checkAppendJSON asserts that r.AppendJSON appends exactly the bytes
// of json.Marshal(r) after what the buffer held, and fails exactly when
// json.Marshal fails, leaving the buffer as it was.
func checkAppendJSON(t *testing.T, r *Report) {
	t.Helper()
	want, werr := json.Marshal(r)
	const prefix = "held"
	got, err := r.AppendJSON([]byte(prefix))
	if (err == nil) != (werr == nil) {
		t.Fatalf("report %+v: AppendJSON error %v, encoding/json's %v", r, err, werr)
	}
	if err != nil {
		if string(got) != prefix {
			t.Fatalf("failed AppendJSON returned %q, want the buffer unchanged", got)
		}
		return
	}
	if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("report %+v:\n got  %s\n want %s%s", r, got, prefix, want)
	}
}

// TestReportAppendJSONMatchesEncodingJSON: over random reports,
// AppendJSON writes exactly the bytes of reflective encoding/json, and
// fails exactly when it fails. Half the reports carry one non-finite
// float at a random site.
func TestReportAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 13))
	g := randomGen(rng)
	failed := 0
	const n = 3000
	for i := 0; i < n; i++ {
		r := g.report()
		if i%2 == 1 {
			poison(rng, r)
		}
		if _, err := json.Marshal(r); err != nil {
			failed++
		}
		checkAppendJSON(t, r)
	}
	// Both outcomes must be exercised, or the test proves half its claim.
	if failed == 0 || failed == n {
		t.Fatalf("%d of %d reports failed to encode", failed, n)
	}
}

// FuzzReportAppendJSON: reports built around two fuzzed strings and two
// fuzzed floats, which may be non-finite, encode as encoding/json
// encodes them.
func FuzzReportAppendJSON(f *testing.F) {
	f.Add(uint64(1), "conv1/Conv+Relu", `<a href="x">&</a>`, 1.5, 1e21)
	f.Add(uint64(2), "\x00\x1f\xe2\x80\xa8", "\xff\xc3", math.Copysign(0, -1), 1e-7)
	f.Add(uint64(3), "", "memory", math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, s1, s2 string, f1, f2 float64) {
		rng := rand.New(rand.NewPCG(seed, 0))
		strs := [...]string{s1, s2, ""}
		floats := [...]float64{f1, f2, 0, 1}
		checkAppendJSON(t, reportGen{
			rng:   rng,
			str:   func() string { return strs[rng.IntN(len(strs))] },
			float: func() float64 { return floats[rng.IntN(len(floats))] },
		}.report())
	})
}

// TestReportAppendJSONAllocs: appending a cold-zoo report into a buffer
// that has room for it allocates nothing.
func TestReportAppendJSONAllocs(t *testing.T) {
	ctx := context.Background()
	for _, p := range coldZooPairs {
		rep, err := ProfileCtx(ctx, Options{Model: p.model, Platform: p.platform, Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := rep.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { buf, err = rep.AppendJSON(buf[:0]) }); allocs != 0 || err != nil {
			t.Errorf("%s/%s: AppendJSON into a sized buffer: %v allocs per report (err %v), want 0", p.model, p.platform, allocs, err)
		}
	}
}

// reportJSONSink keeps BenchmarkReportJSON's results live.
var reportJSONSink []byte

// BenchmarkReportJSON encodes cold-zoo's reports, one per (model,
// platform) pair at batch 8, through reflective encoding/json and
// through AppendJSON into a reused buffer, as proofd encodes responses.
func BenchmarkReportJSON(b *testing.B) {
	ctx := context.Background()
	var reps []*Report
	for _, p := range coldZooPairs {
		rep, err := ProfileCtx(ctx, Options{Model: p.model, Platform: p.platform, Batch: 8})
		if err != nil {
			b.Fatal(err)
		}
		reps = append(reps, rep)
	}
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(reps[i%len(reps)])
			if err != nil {
				b.Fatal(err)
			}
			reportJSONSink = data
		}
	})
	b.Run("append_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = reps[i%len(reps)].AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		reportJSONSink = buf
	})
}
