// Package jsonread is a strict, single-pass JSON reader for documents
// whose schema the caller knows, such as proofd's request bodies. A
// schema decoder pulls each value in the order it appears: Object and
// Field for struct-shaped objects, Object and MapKey for map-shaped
// ones, Array and Elem for arrays, and the scalar readers. The schema
// fills its own maps and slices, so it chooses where every value goes.
// There is no reflection and no generic value: an unknown field or a
// value of the wrong kind is an error where it is met, never skipped,
// so reading never recurses deeper than the caller's schema.
//
// The accept set is that of encoding/json's Decoder with
// DisallowUnknownFields, minus two refusals: a key repeated within one
// object (a field named twice, in any case folding, or a map key
// twice), and anything but whitespace after the top-level value.
// Values read as encoding/json decodes them:
//
//   - field names match exactly first, then case-folded
//     (bytes.EqualFold); map keys are data and match only exactly;
//   - null leaves the destination zero (a nil slice, map or pointer);
//   - strings are unescaped, with invalid UTF-8 and unpaired
//     surrogates replaced by U+FFFD;
//   - integer readers refuse fractions, exponents and overflow, and
//     Uint64 refuses any sign; Float64 refuses out-of-range numbers.
//
// Errors carry the byte offset where they were found. No string the
// reader returns aliases the input. String returns a string of its
// own; AppendString and MapKey append what they read to the caller's
// text and return it as a substring of that text, so one schema's
// strings can share one allocation that outlives the input.
package jsonread

import (
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Error is a read failure at Offset, the byte index into the input
// where it was found.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string {
	return "offset " + strconv.Itoa(e.Offset) + ": " + e.Msg
}

// Reader reads one JSON document. The first failure sticks: after it
// every structural reader reports the end of its object or array and
// every scalar reader returns the zero value, so a schema decoder's
// loops finish without checking errors itself; End reports it.
type Reader struct {
	data []byte
	pos  int
	err  *Error
	// keyAt is the offset of the last key read, for errors about it.
	keyAt int
	// buf holds the unescaped form of a string that needs it.
	buf []byte
}

// NewReader returns a reader of data, which it does not modify.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Remaining returns the number of input bytes not yet read, from which
// a schema can size what it fills.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// End finishes the document: it reports the first error, or an error
// when anything but whitespace follows the top-level value.
func (r *Reader) End() error {
	if r.err == nil {
		r.skipSpace()
		if r.pos < len(r.data) {
			r.fail(r.pos, "unexpected data after top-level value")
		}
	}
	if r.err == nil {
		return nil
	}
	return r.err
}

// fail records the first error.
func (r *Reader) fail(at int, msg string) {
	if r.err == nil {
		r.err = &Error{Offset: at, Msg: msg}
	}
}

// unexpected fails at the next byte, which does not begin what the
// caller wants.
func (r *Reader) unexpected(want string) {
	if r.pos >= len(r.data) {
		r.fail(r.pos, "unexpected end of input, expected "+want)
		return
	}
	var found string
	switch c := r.data[r.pos]; {
	case c == '"':
		found = "string"
	case c == '{':
		found = "object"
	case c == '[':
		found = "array"
	case c == 't' || c == 'f':
		found = "boolean"
	case c == '-' || '0' <= c && c <= '9':
		found = "number"
	default:
		found = "invalid character " + strconv.QuoteRune(rune(c))
	}
	r.fail(r.pos, "expected "+want+", found "+found)
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end of the
// input (a NUL byte in the input is never valid where peek is used).
func (r *Reader) peek() byte {
	r.skipSpace()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// literal consumes lit (true, false or null), which peek found begun.
func (r *Reader) literal(lit string) {
	if len(r.data)-r.pos >= len(lit) && string(r.data[r.pos:r.pos+len(lit)]) == lit {
		r.pos += len(lit)
		return
	}
	r.fail(r.pos, "invalid literal, expected "+lit)
}

// open starts a value that must be the container opened by delim or
// null: true at delim, false (consuming it) at null.
func (r *Reader) open(delim byte, want string) bool {
	if r.err != nil {
		return false
	}
	switch r.peek() {
	case delim:
		r.pos++
		return true
	case 'n':
		r.literal("null")
		return false
	}
	r.unexpected(want)
	return false
}

// Object starts reading an object: true after its '{', false when the
// value is null (consumed) or on error.
func (r *Reader) Object() bool { return r.open('{', "object") }

// Array starts reading an array: true after its '[', false when the
// value is null (consumed) or on error. The caller reads each element
// after Elem reports it.
func (r *Reader) Array() bool { return r.open('[', "array") }

// Elem reports whether another element of the array Array started
// follows, consuming the comma before it; n counts the elements read
// so far. At the closing ']' or on error it is false.
func (r *Reader) Elem(n int) bool {
	if r.err != nil {
		return false
	}
	c := r.peek()
	if c == ']' {
		r.pos++
		return false
	}
	if n > 0 {
		if c != ',' {
			r.unexpected("',' or ']'")
			return false
		}
		r.pos++
	}
	return true
}

// key reads the next member key of the object Object started and the
// colon after it; first says whether it is the object's first. The
// key is unescaped and valid until the next read. At the closing '}'
// or on error ok is false.
func (r *Reader) key(first bool) (key []byte, ok bool) {
	if r.err != nil {
		return nil, false
	}
	c := r.peek()
	if c == '}' {
		r.pos++
		return nil, false
	}
	if !first {
		if c != ',' {
			r.unexpected("',' or '}'")
			return nil, false
		}
		r.pos++
		c = r.peek()
	}
	if c != '"' {
		r.unexpected("object key")
		return nil, false
	}
	r.keyAt = r.pos
	key = r.str()
	if r.peek() != ':' {
		r.unexpected("':' after object key")
		return nil, false
	}
	r.pos++
	return key, r.err == nil
}

// Fields names the members of a struct-shaped object in field order;
// Field returns indices into it. It holds at most 64 names, no two
// equal under case folding.
type Fields []string

// index matches key to a field as encoding/json does: exactly first,
// then case-folded.
func (f Fields) index(key []byte) int {
	for i, name := range f {
		if string(key) == name {
			return i
		}
	}
	k := string(key)
	for i, name := range f {
		if strings.EqualFold(k, name) {
			return i
		}
	}
	return -1
}

// Field reads the next member key of a struct-shaped object and
// returns its index in f; the caller then reads the member's value.
// seen records the fields read so far in this object (zero before the
// first). An unknown field, or one already seen, is an error. At the
// closing '}' or on error Field returns -1.
func (r *Reader) Field(f Fields, seen *uint64) int {
	key, ok := r.key(*seen == 0)
	if !ok {
		return -1
	}
	i := f.index(key)
	switch {
	case i < 0:
		r.fail(r.keyAt, "unknown field "+strconv.Quote(string(key)))
		return -1
	case *seen&(1<<uint(i)) != 0:
		r.fail(r.keyAt, "duplicate field "+strconv.Quote(f[i]))
		return -1
	}
	*seen |= 1 << uint(i)
	return i
}

// MapKey reads the next key of the map-shaped object Object started,
// and the colon after it, and appends it to text as AppendString does;
// n counts the keys read so far. The caller then reads the member's
// value and stores it in m under key. A key m already holds is an
// error. At the closing '}' or on error ok is false.
func MapKey[V any](r *Reader, m map[string]V, text *strings.Builder, n int) (key string, ok bool) {
	b, ok := r.key(n == 0)
	if !ok {
		return "", false
	}
	if _, dup := m[string(b)]; dup {
		r.RefuseKey(string(b))
		return "", false
	}
	return appendText(text, b, ""), true
}

// RefuseKey fails the read at the last key read, key, as a repeated
// key of a map-shaped object: a caller that tells repeats apart
// without a map passes MapKey a nil map and refuses them here.
func (r *Reader) RefuseKey(key string) {
	r.fail(r.keyAt, "duplicate key "+strconv.Quote(key))
}

// str reads the string whose opening quote is at r.pos and returns its
// unescaped contents: a window of the input when it holds no escape
// and only valid UTF-8, else r.buf.
func (r *Reader) str() []byte {
	start := r.pos + 1
	for i := start; i < len(r.data); {
		c := r.data[i]
		switch {
		case c == '"':
			r.pos = i + 1
			return r.data[start:i]
		case c == '\\' || c < 0x20:
			return r.strSlow(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			ch, size := utf8.DecodeRune(r.data[i:])
			if ch == utf8.RuneError && size == 1 {
				return r.strSlow(start, i)
			}
			i += size
		}
	}
	r.fail(len(r.data), "unexpected end of input in string")
	return nil
}

// strSlow unescapes the string begun at start into r.buf, from i, the
// first byte str could not pass through.
func (r *Reader) strSlow(start, i int) []byte {
	b := append(r.buf[:0], r.data[start:i]...)
	for i < len(r.data) {
		c := r.data[i]
		switch {
		case c == '"':
			r.pos = i + 1
			r.buf = b
			return b
		case c < 0x20:
			r.fail(i, "invalid control character "+strconv.QuoteRune(rune(c))+" in string")
			return nil
		case c == '\\':
			if i+1 >= len(r.data) {
				r.fail(len(r.data), "unexpected end of input in string")
				return nil
			}
			switch e := r.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				ch := hex4(r.data[i+2:])
				if ch < 0 {
					r.fail(i, "invalid \\u escape in string")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(ch) {
					// As encoding/json: a valid pair is one rune; a
					// lone half is U+FFFD, and whatever follows it is
					// read on its own.
					var lo rune = -1
					if i+1 < len(r.data) && r.data[i] == '\\' && r.data[i+1] == 'u' {
						lo = hex4(r.data[i+2:])
					}
					if pair := utf16.DecodeRune(ch, lo); pair != utf8.RuneError {
						ch = pair
						i += 6
					} else {
						ch = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, ch)
				continue
			default:
				r.fail(i, "invalid escape "+strconv.Quote(string(r.data[i:i+2]))+" in string")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			ch, size := utf8.DecodeRune(r.data[i:])
			b = utf8.AppendRune(b, ch) // invalid UTF-8 reads as U+FFFD
			i += size
		}
	}
	r.fail(len(r.data), "unexpected end of input in string")
	return nil
}

// hex4 parses the four hex digits b begins with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// stringBytes reads a string value (or null, as nil), unescaped and
// valid until the next read.
func (r *Reader) stringBytes() []byte {
	if r.err != nil {
		return nil
	}
	switch r.peek() {
	case '"':
		return r.str()
	case 'n':
		r.literal("null")
		return nil
	}
	r.unexpected("string")
	return nil
}

// String reads a string value into a string of its own; null reads as
// "".
func (r *Reader) String() string {
	b := r.stringBytes()
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

// AppendString reads a string value, appends it to text and returns
// it as a substring of text.String(); null reads as "". A value equal
// to same returns same and appends nothing, so a schema can keep one
// copy of a string it expects to repeat. The returned string shares
// text's memory, which no later append overwrites.
func (r *Reader) AppendString(text *strings.Builder, same string) string {
	return appendText(text, r.stringBytes(), same)
}

// appendText appends b to text and returns it as text's substring, or
// same, appending nothing, when b equals it.
func appendText(text *strings.Builder, b []byte, same string) string {
	if string(b) == same {
		return same
	}
	at := text.Len()
	text.Write(b)
	return text.String()[at:]
}

// Bool reads a boolean value; null reads as false.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	switch r.peek() {
	case 't':
		r.literal("true")
		return r.err == nil
	case 'f':
		r.literal("false")
		return false
	case 'n':
		r.literal("null")
		return false
	}
	r.unexpected("boolean")
	return false
}

// number reads a number value (nil for null) and reports whether it
// has neither fraction nor exponent.
func (r *Reader) number(want string) (tok []byte, integral bool) {
	if r.err != nil {
		return nil, false
	}
	c := r.peek()
	if c == 'n' {
		r.literal("null")
		return nil, false
	}
	if c != '-' && (c < '0' || c > '9') {
		r.unexpected(want)
		return nil, false
	}
	d, start := r.data, r.pos
	i := start
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		r.fail(i, "invalid number: expected digit")
		return nil, false
	}
	integral = true
	if i < len(d) && d[i] == '.' {
		integral = false
		j := digits(d, i+1)
		if j == i+1 {
			r.fail(j, "invalid number: expected digit after decimal point")
			return nil, false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integral = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			r.fail(j, "invalid number: expected digit in exponent")
			return nil, false
		}
		i = j
	}
	r.pos = i
	return d[start:i], integral
}

// digits returns the index of the first non-digit in d at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// integer reads an integer value's sign and magnitude; ok is false for
// null, on error, and for a number with a fraction or exponent or a
// magnitude beyond uint64 (both errors). at is the value's offset.
func (r *Reader) integer(want string) (neg bool, mag uint64, at int, ok bool) {
	tok, integral := r.number(want)
	if tok == nil {
		return false, 0, 0, false
	}
	at = r.pos - len(tok)
	if !integral {
		r.fail(at, "cannot read number "+string(tok)+" as "+want)
		return false, 0, at, false
	}
	if tok[0] == '-' {
		neg, tok = true, tok[1:]
	}
	for _, c := range tok {
		d := uint64(c - '0')
		if mag > (1<<64-1-d)/10 {
			r.fail(at, "number overflows "+want)
			return false, 0, at, false
		}
		mag = mag*10 + d
	}
	return neg, mag, at, true
}

// Int64 reads an integer value in int64's range; null reads as 0.
func (r *Reader) Int64() int64 {
	return r.signed("int64", 64)
}

// Int reads an integer value in int's range; null reads as 0.
func (r *Reader) Int() int {
	return int(r.signed("int", strconv.IntSize))
}

func (r *Reader) signed(want string, bits uint) int64 {
	neg, mag, at, ok := r.integer(want)
	if !ok {
		return 0
	}
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	if neg && mag > limit || !neg && mag >= limit {
		r.fail(at, "number overflows "+want)
		return 0
	}
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}

// Uint64 reads a non-negative integer value; null reads as 0. Any
// sign is refused, as strconv.ParseUint refuses it, "-0" included.
func (r *Reader) Uint64() uint64 {
	neg, mag, at, ok := r.integer("uint64")
	if ok && neg {
		r.fail(at, "cannot read negative number as uint64")
		return 0
	}
	return mag
}

// Float64 reads a number value as strconv.ParseFloat parses it; a
// number beyond float64's range is an error, and null reads as 0.
func (r *Reader) Float64() float64 {
	tok, _ := r.number("float64")
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail(r.pos-len(tok), "number "+string(tok)+" overflows float64")
		return 0
	}
	return f
}
