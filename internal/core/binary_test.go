package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"proof/internal/roofline"
)

// sameBits reports where a and b differ, or "" when they are equal
// field by field: floats by their bits (so NaNs and signed zeros
// compare exactly), slices by nil-ness, length and elements.
func sameBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q != %q", path, a.String(), b.String())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: nil %v, len %d != nil %v, len %d", path, a.IsNil(), a.Len(), b.IsNil(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: unexpected kind %s", path, a.Kind())
	}
	return ""
}

// checkBinaryRoundTrip asserts that r decodes from its binary form to a
// report equal to it bit for bit.
func checkBinaryRoundTrip(t *testing.T, r *Report) {
	t.Helper()
	got, err := DecodeReport(string(r.AppendBinary(nil)))
	if err != nil {
		t.Fatalf("decoding %+v: %v", r, err)
	}
	if d := sameBits(reflect.ValueOf(*r), reflect.ValueOf(*got), "Report"); d != "" {
		t.Fatalf("round trip changed %s", d)
	}
}

// TestReportBinaryRoundTrip: every golden report, and random reports
// with nil, empty and filled slices, edge strings and floats, and a
// non-finite float in half of them, decode from their binary form
// unchanged. A pipeline report decodes in four allocations: the
// report, its layers, its names and its kernels.
func TestReportBinaryRoundTrip(t *testing.T) {
	for _, cfg := range goldenConfigs {
		rep, err := ProfileCtx(context.Background(), cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkBinaryRoundTrip(t, rep)
		enc := string(rep.AppendBinary(nil))
		if allocs := testing.AllocsPerRun(20, func() { _, err = DecodeReport(enc) }); allocs != 4 || err != nil {
			t.Errorf("%s: decoding allocates %v objects (err %v), want 4", cfg.name, allocs, err)
		}
	}
	rng := rand.New(rand.NewPCG(11, 17))
	g := randomGen(rng)
	for i := 0; i < 3000; i++ {
		r := g.report()
		if i%2 == 1 {
			poison(rng, r)
		}
		checkBinaryRoundTrip(t, r)
	}
}

// TestReportBinaryEveryField sets every exported field of a report, at
// every level, to a value no other field holds, and round-trips it: a
// field added to Report, LayerReport, KernelReport, roofline.Model,
// roofline.BWLine or roofline.Point that the binary form leaves out
// fails here, and a field of a kind the form has no encoding for fails
// in fill.
func TestReportBinaryEveryField(t *testing.T) {
	var n int
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		n++
		switch v.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n) * 1001)
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		default:
			t.Fatalf("%s: no binary encoding for kind %s", path, v.Kind())
		}
	}
	var r Report
	fill(reflect.ValueOf(&r).Elem(), "Report")
	got, err := DecodeReport(string(r.AppendBinary(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&r, got) {
		t.Fatalf("round trip changed the report:\n got  %+v\n want %+v", got, &r)
	}
}

// FuzzReportBinary: arbitrary input decodes to a report or an error,
// never a panic, and a report it decodes to round-trips. Reports built
// around a fuzzed string and float, which may be non-finite, round-trip
// too, and so does every prefix of their encoding decode to an error.
func FuzzReportBinary(f *testing.F) {
	small := &Report{Model: "m", Layers: []LayerReport{{Name: "conv1", OpTypes: []string{"Conv"}, Category: "conv",
		Point: roofline.Point{Name: "conv1", Category: "conv", Bound: "memory"}, Kernels: []KernelReport{{Name: "k", Latency: time.Microsecond}}}}}
	f.Add(small.AppendBinary(nil), uint64(1), "conv1/Conv+Relu", 1.5)
	f.Add([]byte{0, 0, 0x80}, uint64(2), "\xff\xc3", math.Inf(1))
	f.Add([]byte{}, uint64(3), "", math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, s string, fl float64) {
		if r, err := DecodeReport(string(data)); err == nil {
			checkBinaryRoundTrip(t, r)
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		strs := [...]string{s, "", "memory", "conv"}
		floats := [...]float64{fl, 0, 1}
		r := reportGen{
			rng:   rng,
			str:   func() string { return strs[rng.IntN(len(strs))] },
			float: func() float64 { return floats[rng.IntN(len(floats))] },
		}.report()
		checkBinaryRoundTrip(t, r)
		enc := string(r.AppendBinary(nil))
		if cut := int(seed % uint64(len(enc))); cut > 0 {
			if _, err := DecodeReport(enc[:cut]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte encoding decoded", cut, len(enc))
			}
		}
	})
}

// storedReportBytes caps each cold-zoo pair's binary report at batch 8,
// about 3% above its measured size (17,061 to 33,124 B, against 36,295
// to 114,495 B of JSON), as coldProfileBudget caps allocations: a
// session keeps every report it stores in this form.
var storedReportBytes = map[string]int{
	"vit-t|a100":                 17575,
	"vit-s|a100":                 17600,
	"vit-b|a100":                 17650,
	"bert-base|a100":             19000,
	"mlp-mixer|xeon-6330":        21950,
	"shufflenetv2-0.5|xeon-6330": 25600,
	"shufflenetv2-1.0|xeon-6330": 25650,
	"mlp-mixer|npu3720":          34100,
	"shufflenetv2-0.5|npu3720":   23000,
	"shufflenetv2-1.0|npu3720":   23050,
}

// TestStoredReportBytes: each cold-zoo pair's report encodes at batch 8
// within its budget, and the mean over cold-zoo's 60 (pair, batch)
// points stays within 25 KiB, under half of what the same reports take
// as JSON.
func TestStoredReportBytes(t *testing.T) {
	ctx := context.Background()
	var total, totalJSON, points int
	for _, p := range coldZooPairs {
		key := p.model + "|" + p.platform
		for _, batch := range coldBatches {
			rep, err := ProfileCtx(ctx, Options{Model: p.model, Platform: p.platform, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			size := len(rep.AppendBinary(nil))
			js, err := rep.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			total, totalJSON, points = total+size, totalJSON+len(js), points+1
			if batch != 8 {
				continue
			}
			t.Logf("%s: %d B binary, %d B JSON", key, size, len(js))
			if budget := storedReportBytes[key]; size > budget {
				t.Errorf("%s: the stored report takes %d B, budget %d B", key, size, budget)
			}
		}
	}
	mean := float64(total) / float64(points)
	t.Logf("mean over %d points: %.0f B binary, %.0f B JSON", points, mean, float64(totalJSON)/float64(points))
	if mean > 25*1024 {
		t.Errorf("a stored report takes %.0f B on average, over 25 KiB", mean)
	}
}

// BenchmarkReportBinary encodes cold-zoo's reports, one per (model,
// platform) pair at batch 8, into a reused buffer, as a session stores
// a miss, and decodes them, as a session serves a hit.
func BenchmarkReportBinary(b *testing.B) {
	ctx := context.Background()
	var reps []*Report
	var encs []string
	for _, p := range coldZooPairs {
		rep, err := ProfileCtx(ctx, Options{Model: p.model, Platform: p.platform, Batch: 8})
		if err != nil {
			b.Fatal(err)
		}
		reps = append(reps, rep)
		encs = append(encs, string(rep.AppendBinary(nil)))
	}
	b.Run("append_binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = reps[i%len(reps)].AppendBinary(buf[:0])
		}
		reportJSONSink = buf
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeReport(encs[i%len(encs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
