package histstore

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord throws arbitrary bytes at the record decoder: it
// must never panic or mis-slice, every error must be one of the three
// documented outcomes, and a clean decode must re-encode to the very
// bytes it was parsed from (the store's read path depends on that).
func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeRecord([]byte(`{"model":"m","platform":"p"}`), []byte(`{"ok":true}`)))
	f.Add(encodeRecord([]byte(`{"model":"m","platform":"p","batch":8,"series":"5f0c9e1d2b3a4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5"}`), []byte(`{"ok":true}`)))
	f.Add(encodeRecord(nil, nil))
	f.Add(encodeRecord([]byte(`{}`), bytes.Repeat([]byte("x"), 1000)))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, 64))
	// A CRC-corrupt but well-framed record.
	bad := encodeRecord([]byte(`{"model":"m"}`), []byte(`{"x":1}`))
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		switch {
		case err == nil:
			if rec.size < recordHeaderSize+metaFrameSize || rec.size > int64(len(data)) {
				t.Fatalf("clean decode with impossible size %d (input %d)", rec.size, len(data))
			}
			// Round-trip: re-encoding the parsed parts must reproduce
			// the record bytes exactly.
			if got := encodeRecord(rec.metaRaw, rec.report); !bytes.Equal(got, data[:rec.size]) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, data[:rec.size])
			}
		case errors.Is(err, errCorrupt):
			if rec.size < recordHeaderSize || rec.size > int64(len(data)) {
				t.Fatalf("corrupt record with unskippable size %d (input %d)", rec.size, len(data))
			}
		case errors.Is(err, errTorn):
			if rec.size != 0 {
				t.Fatalf("torn record reported size %d, want 0", rec.size)
			}
		default:
			// The meta-framing error: CRC-clean payload with a bad
			// inner length. Must still carry a skippable size.
			if rec.size < recordHeaderSize || rec.size > int64(len(data)) {
				t.Fatalf("framing error with unskippable size %d: %v", rec.size, err)
			}
		}
	})
}
