// Package jsonwrite appends JSON values to a byte slice exactly as
// encoding/json writes them, for hand-written encoders of documents
// whose schema the caller knows, such as a profiling report. It is the
// writer twin of jsonread: no reflection, no intermediate value and no
// re-compaction, so an encoder that appends into a reused buffer
// allocates nothing.
//
// Integers need no helper (strconv.AppendInt writes encoding/json's
// form). A caller checks Finite before Float, because encoding/json
// refuses a non-finite float where a hand-written encoder would
// otherwise write one.
package jsonwrite

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Finite reports whether f is a float encoding/json can encode:
// neither infinite nor NaN.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// Float appends a finite f as encoding/json encodes a float64: the
// shortest form that round-trips, in exponent notation below 1e-6 and
// from 1e21 on, with a one-digit negative exponent unpadded.
func Float(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// htmlSafe[c] is true for the ASCII bytes String copies unescaped:
// every byte from 0x20 on except '"', '\\', '<', '>' and '&', as in
// encoding/json's htmlSafeSet. One table load per byte replaces a
// chain of compares on the common path.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// String appends s quoted as encoding/json quotes it with HTML
// escaping on: '"' and '\\' and the control bytes escaped (short forms
// for \b, \f, \n, \r and \t), '<', '>' and '&' as \u003c, \u003e and
// \u0026, U+2028 and U+2029 escaped, and each invalid UTF-8 byte as
// \ufffd.
func String(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
