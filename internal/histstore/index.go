package histstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// ixEntry is one indexed record: its meta (the exact bytes stored in
// the record, so the index can round-trip without re-marshaling) plus
// the record's location.
type ixEntry struct {
	meta    Meta
	metaRaw []byte
	seq     uint64
	seg     uint32
	off     int64 // offset of the record header within the segment
	plen    uint32
}

// recAddr is a record's address, the segment and offset an Entry.ID
// spells.
type recAddr struct {
	seg uint32
	off int64
}

func (e *ixEntry) addr() recAddr { return recAddr{e.seg, e.off} }

// compareKey orders entries by the composite index key
// (model, platform, descriptor-hash, git-rev, timestamp, seq) — the
// tuple the issue's queries and drift grouping walk.
func compareKey(a, b *ixEntry) int {
	if c := cmpStr(a.meta.Model, b.meta.Model); c != 0 {
		return c
	}
	if c := cmpStr(a.meta.Platform, b.meta.Platform); c != 0 {
		return c
	}
	if c := cmpStr(a.meta.DescriptorHash, b.meta.DescriptorHash); c != 0 {
		return c
	}
	if c := cmpStr(a.meta.GitRev, b.meta.GitRev); c != 0 {
		return c
	}
	if a.meta.TimestampNS != b.meta.TimestampNS {
		if a.meta.TimestampNS < b.meta.TimestampNS {
			return -1
		}
		return 1
	}
	if a.seq != b.seq {
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}

func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// prefixRange returns the half-open range of the sorted entries
// matching a (model[, platform]) prefix. Platform narrows the range
// only when model is set: it follows model in the key order.
func prefixRange(entries []*ixEntry, model, platform string) (int, int) {
	if model == "" {
		return 0, len(entries)
	}
	// Entries sharing the prefix compare equal to it.
	cmp := func(i int) int {
		m := entries[i].meta
		if c := cmpStr(m.Model, model); c != 0 || platform == "" {
			return c
		}
		return cmpStr(m.Platform, platform)
	}
	start := sort.Search(len(entries), func(i int) bool { return cmp(i) >= 0 })
	end := sort.Search(len(entries), func(i int) bool { return cmp(i) > 0 })
	return start, end
}

// ---- index file ----
//
// index.bin persists the sorted entry list plus per-segment coverage
// watermarks, so Open only has to scan bytes appended after the last
// index write (the crash-recovery region) instead of the whole store:
//
//	[8]  idxMagic
//	[4]  version
//	[8]  next sequence number
//	[4]  segment count
//	       per segment: [4] id  [8] covered bytes (file size at write)
//	[4]  entry count
//	       per entry: [4] meta length, meta JSON,
//	                  [8] seq  [4] seg  [8] off  [4] payload length
//	[4]  CRC-32 of everything above
//
// A missing or corrupt index file is never fatal: Open falls back to a
// full segment scan and rewrites it.

const (
	idxMagic   = "PRFIDX01"
	idxVersion = 1
	idxName    = "index.bin"
)

// indexFile is the decoded persistent index.
type indexFile struct {
	nextSeq uint64
	covered map[uint32]int64
	entries []*ixEntry
}

func writeIndexFile(dir string, nextSeq uint64, covered map[uint32]int64, entries []*ixEntry) error {
	var buf bytes.Buffer
	buf.WriteString(idxMagic)
	writeU32(&buf, idxVersion)
	writeU64(&buf, nextSeq)
	segIDs := make([]uint32, 0, len(covered))
	for id := range covered {
		segIDs = append(segIDs, id)
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	writeU32(&buf, uint32(len(segIDs)))
	for _, id := range segIDs {
		writeU32(&buf, id)
		writeU64(&buf, uint64(covered[id]))
	}
	writeU32(&buf, uint32(len(entries)))
	for _, e := range entries {
		writeU32(&buf, uint32(len(e.metaRaw)))
		buf.Write(e.metaRaw)
		writeU64(&buf, e.seq)
		writeU32(&buf, e.seg)
		writeU64(&buf, uint64(e.off))
		writeU32(&buf, e.plen)
	}
	writeU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))

	// Write-then-rename so a crash mid-write leaves the previous index
	// (or none) rather than a torn one.
	tmp := filepath.Join(dir, idxName+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, idxName))
}

func readIndexFile(dir string) (*indexFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, idxName))
	if err != nil {
		return nil, err
	}
	if len(data) < len(idxMagic)+8 || string(data[:len(idxMagic)]) != idxMagic {
		return nil, fmt.Errorf("histstore: bad index magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("histstore: index CRC mismatch")
	}
	r := &byteReader{buf: body, pos: len(idxMagic)}
	if v := r.u32(); v != idxVersion {
		return nil, fmt.Errorf("histstore: unsupported index version %d", v)
	}
	ix := &indexFile{nextSeq: r.u64(), covered: map[uint32]int64{}}
	nseg := int(r.u32())
	for i := 0; i < nseg && r.err == nil; i++ {
		id := r.u32()
		ix.covered[id] = int64(r.u64())
	}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		metaRaw := r.bytes(int(r.u32()))
		e := &ixEntry{
			metaRaw: metaRaw,
			seq:     r.u64(),
			seg:     r.u32(),
		}
		e.off = int64(r.u64())
		e.plen = r.u32()
		if r.err != nil {
			break
		}
		if err := json.Unmarshal(e.metaRaw, &e.meta); err != nil {
			return nil, fmt.Errorf("histstore: index entry %d meta: %w", i, err)
		}
		ix.entries = append(ix.entries, e)
	}
	if r.err != nil {
		return nil, fmt.Errorf("histstore: index truncated: %w", r.err)
	}
	return ix, nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

// byteReader is a bounds-checked little-endian cursor.
type byteReader struct {
	buf []byte
	pos int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.err = fmt.Errorf("need %d bytes at %d, have %d", n, r.pos, len(r.buf)-r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *byteReader) bytes(n int) []byte { return r.take(n) }
