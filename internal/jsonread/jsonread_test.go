package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// doc is a schema with every reader in it, nested once.
type doc struct {
	S string            `json:"s"`
	I int               `json:"i"`
	J int64             `json:"j"`
	U uint64            `json:"u"`
	F float64           `json:"f"`
	B bool              `json:"b"`
	L []int64           `json:"l"`
	M map[string]string `json:"m"`
	N *doc              `json:"n"`
}

var docFields = Fields{"s", "i", "j", "u", "f", "b", "l", "m", "n"}

// docReader reads docs with one of the string readers: String when
// text is nil, else AppendString into text. Map keys always go through
// MapKey into keys.
type docReader struct {
	r    *Reader
	text *strings.Builder
	keys strings.Builder
}

func (dr *docReader) str() string {
	if dr.text == nil {
		return dr.r.String()
	}
	return dr.r.AppendString(dr.text, "")
}

func (dr *docReader) doc() *doc {
	r := dr.r
	if !r.Object() {
		return nil
	}
	d := &doc{}
	var seen uint64
	for f := r.Field(docFields, &seen); f >= 0; f = r.Field(docFields, &seen) {
		switch f {
		case 0:
			d.S = dr.str()
		case 1:
			d.I = r.Int()
		case 2:
			d.J = r.Int64()
		case 3:
			d.U = r.Uint64()
		case 4:
			d.F = r.Float64()
		case 5:
			d.B = r.Bool()
		case 6:
			if r.Array() {
				d.L = []int64{}
				for n := 0; r.Elem(n); n++ {
					d.L = append(d.L, r.Int64())
				}
			}
		case 7:
			if r.Object() {
				d.M = map[string]string{}
				for n := 0; ; n++ {
					k, ok := MapKey(r, d.M, &dr.keys, n)
					if !ok {
						break
					}
					d.M[k] = dr.str()
				}
			}
		case 8:
			d.N = dr.doc()
		}
	}
	return d
}

// decodeWith decodes data with String (text nil) or AppendString.
func decodeWith(data []byte, text *strings.Builder) (*doc, error) {
	dr := &docReader{r: NewReader(data), text: text}
	d := dr.doc()
	return d, dr.r.End()
}

func decode(data string) (*doc, error) { return decodeWith([]byte(data), nil) }

// strictJSON decodes data as encoding/json's strict Decoder does, with
// the trailing-data check the Decoder leaves to its caller.
func strictJSON(data string) (*doc, error) {
	var d *doc
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data")
	}
	return d, nil
}

// agreeDocs are documents at the edges of the accept set, each read
// as encoding/json reads it or refused by both; they seed FuzzReader.
var agreeDocs = []string{
	`null`, `{}`, ` { } `, `{"s":"x","i":-3,"j":-9223372036854775808,"u":18446744073709551615,"f":-0.5e-3,"b":true}`,
	`{"s":null,"i":null,"j":null,"u":null,"f":null,"b":null,"l":null,"m":null,"n":null}`,
	`{"l":[],"m":{},"n":{}}`, `{"m":{"k\u0031":"v\u0032","k\u0032":"\u00e9"}}`, `{"l":[1,null,-0],"m":{"a":"x","A":"y","b":null},"n":{"n":{"s":"deep"}}}`,
	`{"S":"folded","I":1}`, `{"\u0073":"escaped"}`, "{\"\u017f\":\"long s folds to s\"}", `{"s":"😀\ud83dA\udc00é "}`,
	"{\"s\":\"\xff\xc3\"}", `{"i":1.0}`, `{"i":1e0}`, `{"i":9223372036854775808}`, `{"u":-0}`, `{"u":-1}`,
	`{"f":1e400}`, `{"f":1e-400}`, `{"f":"1"}`, `{"b":0}`, `{"l":{}}`, `{"m":[]}`, `{"m":{"a":1}}`, `{"x":1}`,
	`{"s":"a\qb"}`, `{"s":"a` + "\n" + `b"}`, `{"i":01}`, `{"i":1.}`, `{"i":-}`, `{"l":[1,]}`, `{"l":[,1]}`,
	`{"l":[1 2]}`, `{"s":"x",}`, `{"s" "x"}`, `{"s":"x"`, `{"b":tru}`, `{"b":truex}`, `[]`, `""`, ``, `  `,
	`{"s":"x"}x`, `{"s":"x"}{}`, `{"s":"x"} `,
}

// TestReaderAgreesWithEncodingJSON: on documents both accept, the
// reader's value is encoding/json's; on documents encoding/json
// refuses, the reader refuses too.
func TestReaderAgreesWithEncodingJSON(t *testing.T) {
	for _, data := range agreeDocs {
		checkReader(t, []byte(data))
	}
}

// FuzzReader: on any input, String and AppendString each read doc as
// encoding/json does, none of their strings aliasing the input, or
// both refuse it; they refuse a document encoding/json accepts only
// for a repeated key or trailing data.
func FuzzReader(f *testing.F) {
	for _, data := range agreeDocs {
		f.Add([]byte(data))
	}
	f.Fuzz(checkReader)
}

// checkReader decodes data with both string readers and holds them to
// encoding/json and to each other. Each reads its own copy of data,
// overwritten before the comparison.
func checkReader(t *testing.T, data []byte) {
	t.Helper()
	want, werr := strictJSON(string(data))
	own := append([]byte(nil), data...)
	got, err := decodeWith(own, nil)
	shared := append([]byte(nil), data...)
	var text strings.Builder
	gotText, terr := decodeWith(shared, &text)
	copy(own, bytes.Repeat([]byte{'#'}, len(own)))
	copy(shared, bytes.Repeat([]byte{'#'}, len(shared)))
	if (err == nil) != (terr == nil) {
		t.Errorf("%q: String reads it with error %v, AppendString with %v", data, err, terr)
		return
	}
	switch onPurpose := werr == nil && refusedOnPurpose(data); {
	case werr != nil && err == nil:
		t.Errorf("%q: accepted, encoding/json refuses: %v", data, werr)
	case werr != nil:
	case onPurpose && err == nil:
		t.Errorf("%q: accepted a repeated key or trailing data", data)
	case onPurpose:
	case err != nil:
		t.Errorf("%q: refused, encoding/json accepts: %v", data, err)
	case !reflect.DeepEqual(got, want):
		t.Errorf("%q: String read %+v, want %+v", data, got, want)
	case !reflect.DeepEqual(gotText, want):
		t.Errorf("%q: AppendString read %+v, want %+v", data, gotText, want)
	}
}

// refusedOnPurpose reports whether a document encoding/json accepts
// holds one of the reader's own refusals: data after the top-level
// value, or a key repeated in one object, case-folded in a doc and
// exactly in its map. It reads with encoding/json's tokenizer.
func refusedOnPurpose(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	return repeatsKey(json.NewDecoder(bytes.NewReader(v)), false)
}

// repeatsKey reads one value from dec, a doc's map when isMap, and
// reports whether an object in it names a key twice.
func repeatsKey(dec *json.Decoder, isMap bool) bool {
	switch tok, _ := dec.Token(); tok {
	case json.Delim('{'):
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
			if repeatsKey(dec, !isMap && strings.EqualFold(key, "m")) {
				return true
			}
		}
		dec.Token()
	case json.Delim('['):
		for dec.More() {
			if repeatsKey(dec, false) {
				return true
			}
		}
		dec.Token()
	}
	return false
}

// TestReaderRefusals pins what the reader refuses beyond encoding/json,
// and the offset each error names.
func TestReaderRefusals(t *testing.T) {
	for _, tc := range []struct {
		data   string
		offset int
		msg    string
	}{
		{`{"s":"a","s":"b"}`, 9, `duplicate field "s"`},
		{`{"s":"a","S":"b"}`, 9, `duplicate field "s"`},
		{`{"m":{"k":"a","k":"b"}}`, 14, `duplicate key "k"`},
		{`{"s":"a"} }`, 10, "unexpected data after top-level value"},
		{`{"s":"a"} ]`, 10, "unexpected data after top-level value"},
		{`{"s":"a","x":{"deep":[1]}}`, 9, `unknown field "x"`},
		{`{"i":1.5}`, 5, "cannot read number 1.5 as int"},
		{`{"u":-1}`, 5, "cannot read negative number as uint64"},
		{`{"l":[1,"2"]}`, 8, "expected int64, found string"},
		{`{"s":"abc`, 9, "unexpected end of input in string"},
		{``, 0, "unexpected end of input, expected object"},
	} {
		_, err := decode(tc.data)
		var e *Error
		if !errors.As(err, &e) || e.Offset != tc.offset || e.Msg != tc.msg {
			t.Errorf("%q: error %v, want offset %d: %s", tc.data, err, tc.offset, tc.msg)
		}
		if _, werr := strictJSON(tc.data); werr == nil && !strings.Contains(tc.msg, "duplicate") &&
			!strings.Contains(tc.msg, "after top-level") {
			t.Errorf("%q: encoding/json accepts it, but it is no listed refusal", tc.data)
		}
	}
}

// TestStringsDoNotAliasInput: a decoded string survives the input
// buffer being reused, whichever reader decoded it.
func TestStringsDoNotAliasInput(t *testing.T) {
	const doc = `{"s":"plain","m":{"key":"value"},"l":[1],"n":{"s":"esc\u0061ped"}}`
	want, err := decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []*strings.Builder{nil, {}} {
		data := []byte(doc)
		got, err := decodeWith(data, text)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, bytes.Repeat([]byte{'#'}, len(data)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded values changed with the input: %+v, want %+v", got, want)
		}
	}
}

// TestAppendStringSharesText: AppendString and MapKey append each
// string once, and a value equal to same appends nothing.
func TestAppendStringSharesText(t *testing.T) {
	var text strings.Builder
	r := NewReader([]byte(`{"k":["v","x\u0079",null,"k"]}`))
	m := map[string]int{}
	if !r.Object() {
		t.Fatal("no object")
	}
	key, ok := MapKey(r, m, &text, 0)
	if !ok || !r.Array() {
		t.Fatal(r.End())
	}
	var vals []string
	for n := 0; r.Elem(n); n++ {
		vals = append(vals, r.AppendString(&text, key))
	}
	m[key] = len(vals)
	if _, more := MapKey(r, m, &text, 1); more {
		t.Fatal("a second key")
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if got := text.String(); got != "kvxy" {
		t.Errorf("text %q, want %q", got, "kvxy")
	}
	if want := []string{"v", "xy", "", "k"}; !reflect.DeepEqual(vals, want) {
		t.Errorf("values %q, want %q", vals, want)
	}
	if unsafe.StringData(vals[3]) != unsafe.StringData(key) {
		t.Error("a value equal to same is not same")
	}
}
