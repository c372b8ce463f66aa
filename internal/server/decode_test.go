package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"proof/internal/graph"
	"proof/internal/jsonread"
	"proof/internal/models"
)

// oracleRequest is ProfileRequest as proofd decoded it before bodies
// were read in one pass: its graph field (shadowing the embedded one)
// kept raw for a second decode.
type oracleRequest struct {
	ProfileRequest
	Graph json.RawMessage `json:"graph,omitempty"`
}

// decodeOracle is that former two-step encoding/json decode, kept as
// the parity oracle: the body strictly decoded with the graph raw, a
// trailing-data check, then the graph strictly decoded on its own. The
// one intended difference is folded in: "graph": null is no graph.
func decodeOracle(data []byte) (ProfileRequest, error) {
	var o oracleRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return ProfileRequest{}, err
	}
	if dec.More() {
		return ProfileRequest{}, errors.New("unexpected data after JSON body")
	}
	req := o.ProfileRequest
	if len(o.Graph) > 0 && string(o.Graph) != "null" {
		g := &graph.Graph{}
		dec := json.NewDecoder(bytes.NewReader(o.Graph))
		dec.DisallowUnknownFields()
		if err := dec.Decode(g); err != nil {
			return ProfileRequest{}, err
		}
		req.Graph = g
	}
	return req, nil
}

// refusedOnPurpose reports whether a body the oracle accepts holds one
// of the refusals the single-pass decoder adds: data after the
// top-level value, or a key repeated in one object. It reads the body
// with encoding/json's tokenizer, sharing no code with the decoder.
func refusedOnPurpose(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var doc json.RawMessage
	if err := dec.Decode(&doc); err != nil {
		return false
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	return repeatsKey(json.NewDecoder(bytes.NewReader(doc)), "request")
}

// repeatsKey reads one value of the given schema kind from dec and
// reports whether an object in it names a key twice: case-folded for
// struct-shaped objects, exactly for the maps ("tensors", "attrs").
func repeatsKey(dec *json.Decoder, kind string) bool {
	tok, _ := dec.Token()
	switch tok {
	case json.Delim('{'):
		isMap := kind == "tensors" || kind == "attrs"
		var keys []string
		for dec.More() {
			kt, _ := dec.Token()
			key, _ := kt.(string)
			for _, k := range keys {
				if k == key || !isMap && strings.EqualFold(k, key) {
					return true
				}
			}
			keys = append(keys, key)
			if repeatsKey(dec, memberKind(kind, key)) {
				return true
			}
		}
		dec.Token()
	case json.Delim('['):
		elem := ""
		if kind == "nodes" {
			elem = "node"
		}
		for dec.More() {
			if repeatsKey(dec, elem) {
				return true
			}
		}
		dec.Token()
	}
	return false
}

// memberKind is the schema kind of the value under key in an object
// of the given kind.
func memberKind(kind, key string) string {
	switch kind {
	case "tensors":
		return "tensor"
	case "attrs":
		return "attr"
	}
	for _, m := range [][3]string{
		{"request", "graph", "graph"},
		{"graph", "nodes", "nodes"},
		{"graph", "tensors", "tensors"},
		{"node", "attrs", "attrs"},
	} {
		if kind == m[0] && strings.EqualFold(key, m[1]) {
			return m[2]
		}
	}
	return ""
}

// checkDecodeParity decodes data with the single-pass decoder and the
// oracle and fails unless they agree: both refuse, the decoder refuses
// on purpose (and only then), or both yield DeepEqual requests. The
// decoder reads its own copy of data, overwritten before the
// comparison, so no decoded string may alias the body.
func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()
	body := append([]byte(nil), data...)
	got, err := decodeProfileRequest(body)
	copy(body, bytes.Repeat([]byte{'#'}, len(body)))
	want, werr := decodeOracle(data)
	var jerr *jsonread.Error
	if err != nil && (!errors.As(err, &jerr) || jerr.Offset < 0 || jerr.Offset > len(data)) {
		t.Fatalf("error %v is not a jsonread.Error inside the body", err)
	}
	switch onPurpose := werr == nil && refusedOnPurpose(data); {
	case werr != nil && err == nil:
		t.Fatalf("accepted a body encoding/json refuses (%v): %q", werr, data)
	case werr != nil:
	case onPurpose && err == nil:
		t.Fatalf("accepted trailing data or a repeated key: %q", data)
	case onPurpose:
	case err != nil:
		t.Fatalf("refused a body encoding/json accepts: %v: %q", err, data)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %q\n got  %+v\n want %+v", data, got, want)
	}
}

// decodeSeeds are bodies at the edges of the accept set, one family of
// the parity contract each; go test runs them as FuzzDecodeProfileRequest's
// seed corpus.
var decodeSeeds = []string{
	// every field, then every field null
	`{"model":"resnet-50","platform":"a100","backend":"trtsim","batch":8,"dtype":"fp16","mode":"measured","seed":18446744073709551615,` +
		`"gpu_clock_mhz":1410,"emc_clock_mhz":-3,"gpu_capacity":0.5,"cpu_clusters":2,"measured_roofline":true,"ignore_support":false}`,
	`{"model":null,"graph":null,"platform":null,"backend":null,"batch":null,"dtype":null,"mode":null,"seed":null,` +
		`"gpu_clock_mhz":null,"emc_clock_mhz":null,"gpu_capacity":null,"cpu_clusters":null,"measured_roofline":null,"ignore_support":null}`,
	`null`, ` {} `, ``, `[]`, `"x"`, `{`, `{"model"}`, `{"model":}`, `{,}`, `{"model":"a",}`,
	// folded and escaped names; Kelvin sign and long s fold too
	`{"MODEL":"a","Platform":"b","Gpu_Clock_Mhz":1}`, `{"name":"x"}`, `{"model":"a","plAtform":"b"}`,
	`{"Key":1}`, `{"ſeed":1}`, `{"model":"a","MODEL":"b"}`, `{"model":"a","model":"a"}`,
	// strings: escapes, surrogates, non-ASCII, invalid UTF-8, control bytes
	`{"model":"a\"b\\c\/d\b\f\n\r\t\u0000é "}`, `{"model":"😀 \ud83d \ude00 \ud83dx \ud83dA \udc00\ud800"}`,
	"{\"model\":\"caf\xc3\xa9 \xff\xfe \xed\xa0\x80\"}", "{\"model\":\"a\x01b\"}", `{"model":"\x"}`, `{"model":"\u12"}`, `{"model":"abc`,
	// numbers into int, uint64 and float64 fields
	`{"batch":1.0}`, `{"batch":1e0}`, `{"batch":-0}`, `{"batch":01}`, `{"batch":-}`, `{"batch":1.}`, `{"batch":.5}`, `{"batch":+1}`,
	`{"batch":9223372036854775807}`, `{"batch":9223372036854775808}`, `{"batch":-9223372036854775808}`, `{"batch":-9223372036854775809}`,
	`{"seed":-1}`, `{"seed":-0}`, `{"seed":18446744073709551616}`, `{"seed":"1"}`, `{"batch":true}`, `{"batch":"8"}`,
	`{"gpu_capacity":1e400}`, `{"gpu_capacity":1e-400}`, `{"gpu_capacity":-0}`, `{"gpu_capacity":2.5E+3}`, `{"gpu_capacity":1e}`,
	`{"measured_roofline":1}`, `{"measured_roofline":tru}`, `{"measured_roofline":truex}`, `{"model":nul}`,
	// unknown fields and wrong kinds, refused where met
	`{"bogus":{"deep":[[[[1]]]]}}`, `{"model":["a"]}`, `{"model":{"a":1}}`,
	// trailing data
	`{"model":"a"} }`, `{"model":"a"} ]`, `{"model":"a"}x`, `{"model":"a"} {}`, "{\"model\":\"a\"}\n\t ",
	// graphs: null, wrong kinds, empty, nil against empty lists and maps, null elements
	`{"graph":null}`, `{"graph":{}}`, `{"graph":[]}`, `{"graph":"x"}`, `{"graph":1}`, `{"graph":{"bogus":1}}`,
	`{"graph":{"name":"g","nodes":[],"tensors":{},"inputs":[],"outputs":[]}}`,
	`{"graph":{"name":null,"nodes":null,"tensors":null,"inputs":null,"outputs":null}}`,
	`{"graph":{"nodes":[null,{}],"tensors":{"t":null,"u":{}},"inputs":[null,"x"]}}`,
	`{"graph":{"tensors":{"a":{"name":"a","dtype":1,"shape":[],"param":true,"int_data":[]}},"outputs":["a"]}}`,
	`{"graph":{"tensors":{"a":{"shape":null,"int_data":null}}}}`,
	`{"graph":{"tensors":{"a":{"shape":[1,null,-3],"int_data":[9223372036854775807,-9223372036854775808]}}}}`,
	`{"graph":{"tensors":{"a":{"shape":[1.5]}}}}`, `{"graph":{"tensors":{"a":{"int_data":[1e3]}}}}`,
	// map keys are data: unescaped, never folded, repeats refused
	`{"graph":{"tensors":{"T":{"name":"T"},"t":{"name":"t"}}}}`, `{"graph":{"tensors":{"t\u0031":{"name":"x\u0032y"}}}}`, `{"graph":{"tensors":{"t":{},"t":{}}}}`,
	`{"graph":{"tensors":{"t":{},"t":{}}}}`, `{"graph":{"tensors":{"t":null,"t":null}}}`,
	`{"graph":{"nodes":[{"name":"n","op_type":"Gemm","attrs":{"transB":{"kind":1,"i":1},"TRANSB":{"kind":1,"i":0},"transb":null}}]}}`,
	`{"graph":{"nodes":[{"name":"n","attrs":{"a":{"kind":2,"ints":[1,2],"f":0.1,"s":"x","i":-1}}}]}}`,
	`{"graph":{"nodes":[{"NAME":"n","Op_Type":"Relu","INPUTS":["x"],"outputs":["y"],"Attrs":{}}]}}`,
	`{"graph":{"nodes":[{"name":"n","name":"m"}]}}`, `{"graph":{"nodes":[{"attrs":{"a":{"kind":1,"KIND":2}}}]}}`,
	`{"graph":{"nodes":[{"attrs":{"a":{"f":1e400}}}]}}`, `{"graph":{"nodes":[{"attrs":{"a":{"i":1.0}}}]}}`,
	`{"graph":{"nodes":[{"attrs":{"a":{"bogus":1}}}]}}`, `{"graph":{"nodes":[1]}}`, `{"graph":{"nodes":[[]]}}`,
	`{"model":"a","graph":{}}`, `{"graph":{},"graph":{}}`, `{"graph":{"name":"a"},"GRAPH":null}`,
}

// TestDecodeZooGraphs decodes every zoo graph posted inline both ways:
// the graphs are DeepEqual and share a digest with the graph built in
// process.
func TestDecodeZooGraphs(t *testing.T) {
	for _, info := range models.List() {
		built, err := models.Build(info.Key)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(built)
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(`{"platform":"a100","batch":4,"graph":` + string(raw) + `}`)
		got, err := decodeProfileRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", info.Key, err)
		}
		want, err := decodeOracle(body)
		if err != nil {
			t.Fatalf("%s: oracle: %v", info.Key, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded graph differs from encoding/json's", info.Key)
		}
		if d := got.Graph.Digest(); d != want.Graph.Digest() || d != built.Digest() {
			t.Errorf("%s: digest %s, encoding/json's %s, built %s", info.Key, d, want.Graph.Digest(), built.Digest())
		}
	}
}

// TestRequestFieldsMirrorTags holds the decoders' field lists to the
// request structs' json tags, in field order.
func TestRequestFieldsMirrorTags(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(ProfileRequest{}), profileFields},
		{reflect.TypeOf(SweepRequest{}), sweepFields},
	} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			tags = append(tags, strings.Split(tc.typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.fields) {
			t.Errorf("%s: decoder reads %v, tags are %v", tc.typ.Name(), tc.fields, tags)
		}
	}
}

// FuzzDecodeProfileRequest is the differential proof of the
// single-pass decoder: on any body it agrees with proofd's former
// two-step encoding/json decode, except for the refusals it adds.
func FuzzDecodeProfileRequest(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	tiny, err := json.Marshal(tinyServerGraph())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"platform":"a100","graph":` + string(tiny) + `}`))
	f.Fuzz(checkDecodeParity)
}

// inlineModels are the models perfbench's inline-graph workload posts
// (perfbench/workload.go).
var inlineModels = []string{"resnet-18", "resnet-34", "resnet-50", "mobilenetv2-0.5", "mobilenetv2-1.0", "shufflenetv2-1.0-mod"}

// inlineBody is the body perfbench's inline-graph workload posts for
// model, at one configuration.
func inlineBody(tb testing.TB, model string) []byte {
	g, err := models.Build(model)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"graph":%s,"platform":"a100","batch":8,"seed":12345}`, raw))
}

// decodeBudget caps the heap bytes and objects one decodeProfileRequest
// allocates for each inline model's body, about 3% and 2% above what
// the decode allocates once a graph is read into a few arrays and one
// text (CHANGES.md lists the figures before and after). Most of the
// objects left are the nodes' attribute maps, two each.
var decodeBudget = map[string]struct{ bytes, objects uint64 }{
	"resnet-18":            {55100, 70},
	"resnet-34":            {101200, 102},
	"resnet-50":            {142800, 137},
	"mobilenetv2-0.5":      {148300, 206},
	"mobilenetv2-1.0":      {148300, 206},
	"shufflenetv2-1.0-mod": {169900, 180},
}

// TestDecodeProfileRequestBytes: decoding each inline model's body
// allocates no more heap bytes and objects than its budget, measured on
// one P so no other goroutine's allocations count.
func TestDecodeProfileRequestBytes(t *testing.T) {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, m := range inlineModels {
		body := inlineBody(t, m)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			req, err := decodeProfileRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			decodedSink = req.Graph
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		objects := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: %d B, %d objects per decode", m, bytes, objects)
		budget := decodeBudget[m]
		if bytes > budget.bytes {
			t.Errorf("%s: one decode allocates %d B, budget %d B", m, bytes, budget.bytes)
		}
		if objects > budget.objects {
			t.Errorf("%s: one decode allocates %d objects, budget %d", m, objects, budget.objects)
		}
	}
}

// BenchmarkDecodeProfileRequest decodes the bodies perfbench's
// inline-graph workload posts: each of its six models inline, one
// configuration each.
func BenchmarkDecodeProfileRequest(b *testing.B) {
	var bodies [][]byte
	for _, m := range inlineModels {
		bodies = append(bodies, inlineBody(b, m))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := decodeProfileRequest(bodies[i%len(bodies)])
		if err != nil {
			b.Fatal(err)
		}
		decodedSink = req.Graph
	}
}

// decodedSink keeps the decoded graphs live.
var decodedSink *graph.Graph
