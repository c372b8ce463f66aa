package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
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

func readDoc(r *Reader) *doc {
	if !r.Object() {
		return nil
	}
	d := &doc{}
	var seen uint64
	for f := r.Field(docFields, &seen); f >= 0; f = r.Field(docFields, &seen) {
		switch f {
		case 0:
			d.S = r.String()
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
			d.L = Slice(r, (*Reader).Int64)
		case 7:
			d.M = Map(r, (*Reader).String)
		case 8:
			d.N = readDoc(r)
		}
	}
	return d
}

func decode(data string) (*doc, error) {
	r := NewReader([]byte(data))
	d := readDoc(r)
	return d, r.End()
}

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

// TestReaderAgreesWithEncodingJSON: on documents both accept, the
// reader's value is encoding/json's; on documents encoding/json
// refuses, the reader refuses too.
func TestReaderAgreesWithEncodingJSON(t *testing.T) {
	for _, data := range []string{
		`null`, `{}`, ` { } `, `{"s":"x","i":-3,"j":-9223372036854775808,"u":18446744073709551615,"f":-0.5e-3,"b":true}`,
		`{"s":null,"i":null,"j":null,"u":null,"f":null,"b":null,"l":null,"m":null,"n":null}`,
		`{"l":[],"m":{},"n":{}}`, `{"m":{"k\u0031":"v\u0032","k\u0032":"\u00e9"}}`, `{"l":[1,null,-0],"m":{"a":"x","A":"y","b":null},"n":{"n":{"s":"deep"}}}`,
		`{"S":"folded","I":1}`, `{"\u0073":"escaped"}`, "{\"\u017f\":\"long s folds to s\"}", `{"s":"😀\ud83dA\udc00é "}`,
		"{\"s\":\"\xff\xc3\"}", `{"i":1.0}`, `{"i":1e0}`, `{"i":9223372036854775808}`, `{"u":-0}`, `{"u":-1}`,
		`{"f":1e400}`, `{"f":1e-400}`, `{"f":"1"}`, `{"b":0}`, `{"l":{}}`, `{"m":[]}`, `{"m":{"a":1}}`, `{"x":1}`,
		`{"s":"a\qb"}`, `{"s":"a` + "\n" + `b"}`, `{"i":01}`, `{"i":1.}`, `{"i":-}`, `{"l":[1,]}`, `{"l":[,1]}`,
		`{"l":[1 2]}`, `{"s":"x",}`, `{"s" "x"}`, `{"s":"x"`, `{"b":tru}`, `{"b":truex}`, `[]`, `""`, ``, `  `,
		`{"s":"x"}x`, `{"s":"x"}{}`, `{"s":"x"} `,
	} {
		got, err := decode(data)
		want, werr := strictJSON(data)
		switch {
		case werr != nil && err == nil:
			t.Errorf("%q: accepted, encoding/json refuses: %v", data, werr)
		case werr == nil && err != nil:
			t.Errorf("%q: refused, encoding/json accepts: %v", data, err)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%q: got %+v, want %+v", data, got, want)
		}
	}
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
// buffer being reused, as proofd's caches keep decoded names for
// longer than a request.
func TestStringsDoNotAliasInput(t *testing.T) {
	data := []byte(`{"s":"plain","m":{"key":"value"},"l":[1]}`)
	d, err := decode(string(data))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(data)
	d2 := readDoc(r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{'#'}, len(data)))
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("decoded values changed with the input: %+v, want %+v", d2, d)
	}
}
