// Package histstore is the persistent profile-history store: an
// on-disk, append-only chunked log of profiling reports with a sorted
// index over (model, platform, descriptor-hash, git-rev, timestamp).
// It is what turns the serving stack's ephemeral JSON into
// longitudinal observability — "has this model's roofline verdict
// drifted since last week?" becomes an indexed query instead of
// archaeology.
//
// Design, in one paragraph: reports append to fixed-size segment files
// as length-framed binary records with a per-record CRC; an index file
// persists the sorted key → (segment, offset, length) entries plus a
// per-segment coverage watermark, so reopening a cleanly closed store
// reads only the index, and crash recovery scans only the bytes past
// the watermark — truncating a torn tail and skipping (but counting)
// CRC-corrupt records without losing earlier ones. Reads are partial:
// a query binary-searches the in-memory sorted index and Get reads
// exactly one record's byte range, so paging a single (model,
// platform) key out of a 10k-report history touches only the matching
// segments.
package histstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proof/internal/core"
)

// Meta is the indexed summary of one stored report — everything
// queries and drift detection need without reading the report body.
type Meta struct {
	Model          string `json:"model"`
	Platform       string `json:"platform"`
	DescriptorHash string `json:"descriptor_hash,omitempty"`
	GitRev         string `json:"git_rev,omitempty"`
	TimestampNS    int64  `json:"timestamp_ns"`
	Backend        string `json:"backend,omitempty"`
	Batch          int    `json:"batch,omitempty"`
	DType          string `json:"dtype,omitempty"`
	Mode           string `json:"mode,omitempty"`
	// Series is the request's core.Resolved.Series: the records drift
	// may compare. Records stored before it existed have none; see
	// series.
	Series string `json:"series,omitempty"`
	// Bound is the end-to-end roofline verdict ("compute", "memory",
	// "ridge") — the drift detector's primary signal.
	Bound string `json:"bound,omitempty"`
	// AttainableFLOPS is the roofline ceiling at the report's
	// end-to-end arithmetic intensity; AttainedFLOPS the achieved rate.
	AttainableFLOPS float64 `json:"attainable_flops,omitempty"`
	AttainedFLOPS   float64 `json:"attained_flops,omitempty"`
	// LatencyNS is the end-to-end latency, feeding the per-revision
	// latency digests of drift detection.
	LatencyNS int64 `json:"latency_ns,omitempty"`
}

// Time returns the record timestamp.
func (m Meta) Time() time.Time { return time.Unix(0, m.TimestampNS) }

// Revision identifies the code+hardware configuration a report was
// produced under: drift compares revisions, and either component
// changing is a new revision.
func (m Meta) Revision() string {
	h := m.DescriptorHash
	if len(h) > 12 {
		h = h[:12]
	}
	switch {
	case m.GitRev != "" && h != "":
		return m.GitRev + "@" + h
	case m.GitRev != "":
		return m.GitRev
	}
	return h
}

// series is the record's series, or for a record stored without one a
// legacy series built from its stored identity fields, so a store
// written before series existed still compares like with like.
func (m Meta) series() string {
	if m.Series != "" {
		return m.Series
	}
	return fmt.Sprintf("legacy %q %q %q %d %q %q", m.Model, m.Platform, m.Backend, m.Batch, m.DType, m.Mode)
}

// NewMeta builds the record of one report: its identity (series,
// descriptor hash and the resolved configuration, the requested dtype
// included) from the request r that produced it, its roofline summary
// from the report, stamped with the producing git revision and append
// time. The descriptor hash starts a new revision when a descriptor is
// edited under one git rev.
func NewMeta(r *core.Resolved, rep *core.Report, gitRev string, now time.Time) Meta {
	return Meta{
		Model:           r.Model,
		Platform:        r.Plat.Key,
		DescriptorHash:  r.Plat.DescriptorHash(),
		GitRev:          gitRev,
		TimestampNS:     now.UnixNano(),
		Backend:         r.Backend,
		Batch:           r.Batch,
		DType:           r.DType.String(),
		Mode:            string(r.Mode),
		Series:          r.Series(),
		Bound:           rep.EndToEnd.Bound,
		AttainableFLOPS: rep.Roofline.AttainableFLOPS(rep.EndToEnd.AI),
		AttainedFLOPS:   rep.EndToEnd.FLOPS,
		LatencyNS:       int64(rep.TotalLatency),
	}
}

// Options tunes a store; the zero value is production-usable.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// size (0 = 4 MiB). Smaller segments mean finer-grained partial
	// reads and cheaper compaction at the cost of more files.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of a store.
type Stats struct {
	// Segments and Records describe the indexed state; Bytes is the
	// total on-disk segment size.
	Segments int   `json:"segments"`
	Records  int   `json:"records"`
	Bytes    int64 `json:"bytes"`
	// Appends/AppendBytes count successful appends this process.
	Appends     int64 `json:"appends"`
	AppendBytes int64 `json:"append_bytes"`
	// ReadBytes counts every byte read from segment files (record
	// reads, recovery scans, verification) — the accounting behind the
	// partial-read guarantees.
	ReadBytes int64 `json:"read_bytes"`
	// SkippedRecords and TruncatedBytes report what crash recovery
	// found: CRC-corrupt records excluded from the index, and torn
	// tail bytes cut from the final segment.
	SkippedRecords int64 `json:"skipped_records"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// LastAppend is the wall time of the newest record (zero = empty).
	LastAppend time.Time `json:"last_append,omitempty"`
}

// Store is an open history store. All methods are safe for concurrent
// use; construct with Open.
type Store struct {
	dir  string
	opts Options

	mu      sync.RWMutex
	entries []*ixEntry           // sorted by compareKey
	byAddr  map[recAddr]*ixEntry // every entry by its address, for GetID
	covered map[uint32]int64     // segment id -> bytes covered by the index
	nextSeq uint64
	active  uint32   // id of the segment Append writes to
	handles sync.Map // segment id (uint32) -> *os.File, read handles
	w       *os.File // append handle for the active segment
	closed  bool

	appends, appendBytes atomic.Int64
	readBytes            atomic.Int64
	skipped, truncated   atomic.Int64
	lastAppendNS         atomic.Int64
	indexDirty           atomic.Bool
	segBytes             atomic.Int64
}

// Open opens (creating if absent) the store in dir. Recovery runs
// inline: segments not fully covered by the persisted index are
// scanned from their watermark, a torn tail on the final segment is
// truncated, and CRC-corrupt records are skipped and counted
// (Stats.SkippedRecords / Stats.TruncatedBytes).
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts.withDefaults(),
		covered: map[uint32]int64{},
		nextSeq: 1,
	}

	var entries []*ixEntry
	if ix, err := readIndexFile(dir); err == nil {
		entries = ix.entries
		s.covered = ix.covered
		s.nextSeq = ix.nextSeq
	}
	// A missing or corrupt index is recoverable state, not an error:
	// the watermark map stays empty and the scan below covers
	// everything.

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Drop index entries for segments that vanished or shrank
	// (external tampering); their segments are rescanned from zero.
	rescan := map[uint32]bool{}
	var total int64
	for _, id := range segs {
		size, err := segmentSize(dir, id)
		if err != nil {
			return nil, err
		}
		total += size
		if s.covered[id] > size {
			rescan[id] = true
			s.covered[id] = 0
		}
	}
	present := map[uint32]bool{}
	for _, id := range segs {
		present[id] = true
	}
	kept := entries[:0]
	for _, e := range entries {
		if present[e.seg] && !rescan[e.seg] {
			kept = append(kept, e)
		}
	}
	entries = kept
	// The watermark map mirrors the segments actually on disk.
	for id := range s.covered {
		if !present[id] {
			delete(s.covered, id)
		}
	}

	// Recovery scan: every byte past each segment's watermark. The
	// byte total is set first because a torn-tail truncation inside the
	// scan adjusts it downward.
	s.segBytes.Store(total)
	for _, id := range segs {
		more, err := s.scanSegment(id, s.covered[id], id == segs[len(segs)-1])
		if err != nil {
			return nil, err
		}
		entries = append(entries, more...)
		size, err := segmentSize(dir, id)
		if err != nil {
			return nil, err
		}
		s.covered[id] = size
	}

	sort.Slice(entries, func(i, j int) bool { return compareKey(entries[i], entries[j]) < 0 })
	s.entries = entries
	s.byAddr = make(map[recAddr]*ixEntry, len(entries))
	for _, e := range entries {
		s.byAddr[e.addr()] = e
		if e.meta.TimestampNS > s.lastAppendNS.Load() {
			s.lastAppendNS.Store(e.meta.TimestampNS)
		}
	}

	// Active segment: the highest id, or a fresh one.
	if len(segs) > 0 {
		s.active = segs[len(segs)-1]
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

func listSegments(dir string) ([]uint32, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, de := range names {
		var id uint32
		if _, err := fmt.Sscanf(de.Name(), "seg-%08d.seg", &id); err == nil &&
			de.Name() == segmentName(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func segmentSize(dir string, id uint32) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, segmentName(id)))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// openActive ensures the active segment exists (writing its header if
// new) and holds the append handle.
func (s *Store) openActive() error {
	path := filepath.Join(s.dir, segmentName(s.active))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if fi.Size() == 0 {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return err
		}
		s.covered[s.active] = int64(len(segMagic))
		s.segBytes.Add(int64(len(segMagic)))
	}
	s.w = f
	return nil
}

// scanSegment parses records from offset from to the end of segment
// id, returning their index entries. CRC-corrupt records are skipped
// and counted; an unparsable region at the end is truncated when the
// segment is the last one (a torn append), otherwise left in place as
// dead bytes for Compact to reclaim.
func (s *Store) scanSegment(id uint32, from int64, last bool) ([]*ixEntry, error) {
	path := filepath.Join(s.dir, segmentName(id))
	size, err := segmentSize(s.dir, id)
	if err != nil {
		return nil, err
	}
	if from < int64(len(segMagic)) {
		from = 0
	}
	if from >= size {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, err
	}
	s.readBytes.Add(int64(len(buf)))

	pos := int64(0)
	if from == 0 {
		if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
			// Not a segment we wrote; treat the whole file as dead.
			s.skipped.Add(1)
			return nil, nil
		}
		pos = int64(len(segMagic))
	}
	var entries []*ixEntry
	for pos < int64(len(buf)) {
		rec, err := decodeRecord(buf[pos:])
		switch {
		case err == nil:
			var m Meta
			if jerr := json.Unmarshal(rec.metaRaw, &m); jerr != nil {
				// CRC-clean but undecodable meta: a format skew, not
				// random corruption. Skip it like a corrupt record.
				s.skipped.Add(1)
				pos += rec.size
				continue
			}
			metaRaw := make([]byte, len(rec.metaRaw))
			copy(metaRaw, rec.metaRaw)
			entries = append(entries, &ixEntry{
				meta:    m,
				metaRaw: metaRaw,
				seq:     s.nextSeq,
				seg:     id,
				off:     from + pos,
				plen:    uint32(rec.size - recordHeaderSize),
			})
			s.nextSeq++
			pos += rec.size
		case errors.Is(err, errCorrupt):
			// Payload rot under an intact frame: skip exactly one
			// record and resynchronize.
			s.skipped.Add(1)
			pos += rec.size
		default:
			// Torn or unframeable region: nothing past here parses.
			dead := int64(len(buf)) - pos
			if last {
				if terr := os.Truncate(path, from+pos); terr != nil {
					return nil, terr
				}
				s.segBytes.Add(-dead)
			}
			s.truncated.Add(dead)
			return entries, nil
		}
	}
	return entries, nil
}

// Append stores one report under its meta. The report bytes are stored
// verbatim — Get returns exactly what Append was given.
func (s *Store) Append(meta Meta, report []byte) error {
	if meta.Model == "" || meta.Platform == "" {
		return fmt.Errorf("histstore: append requires model and platform (got %q, %q)", meta.Model, meta.Platform)
	}
	if meta.TimestampNS == 0 {
		meta.TimestampNS = time.Now().UnixNano()
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	rec := encodeRecord(metaRaw, report)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("histstore: store is closed")
	}
	if s.covered[s.active] >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	off := s.covered[s.active]
	if _, err := s.w.Write(rec); err != nil {
		return fmt.Errorf("histstore: append to %s: %w", segmentName(s.active), err)
	}
	e := &ixEntry{
		meta:    meta,
		metaRaw: metaRaw,
		seq:     s.nextSeq,
		seg:     s.active,
		off:     off,
		plen:    uint32(len(rec) - recordHeaderSize),
	}
	s.nextSeq++
	s.covered[s.active] = off + int64(len(rec))
	s.segBytes.Add(int64(len(rec)))
	s.insertLocked(e)
	s.appends.Add(1)
	s.appendBytes.Add(int64(len(rec)))
	if meta.TimestampNS > s.lastAppendNS.Load() {
		s.lastAppendNS.Store(meta.TimestampNS)
	}
	s.indexDirty.Store(true)
	return nil
}

// insertLocked places e into the sorted entry slice and the address
// lookup.
func (s *Store) insertLocked(e *ixEntry) {
	i := sort.Search(len(s.entries), func(i int) bool { return compareKey(s.entries[i], e) >= 0 })
	s.entries = slices.Insert(s.entries, i, e)
	s.byAddr[e.addr()] = e
}

// rotateLocked closes the active segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.w.Close(); err != nil {
		return err
	}
	s.active++
	return s.openActive()
}

// Query selects history entries. Entries come back newest-first;
// Limit <= 0 means no limit. The returned total counts every match
// before paging.
type Query struct {
	Model    string
	Platform string
	GitRev   string
	Since    time.Time
	Until    time.Time
	Offset   int
	Limit    int
}

// Entry is one query result: the record's meta plus the handle Get
// needs to read its report body.
type Entry struct {
	// ID is the stable record address ("segment:offset").
	ID   string
	Meta Meta

	seg  uint32
	off  int64
	plen uint32
}

func entryID(seg uint32, off int64) string { return fmt.Sprintf("%d:%d", seg, off) }

// Query runs q against the index — no segment bytes are read.
func (s *Store) Query(q Query) ([]Entry, int, error) {
	// Platform follows model in the key order: with a model set it
	// narrows the index range; without one the range is the whole index
	// and the platform (like git-rev and the time bounds) is a filter.
	s.mu.RLock()
	defer s.mu.RUnlock()
	start, end := prefixRange(s.entries, q.Model, q.Platform)
	var matches []*ixEntry
	for _, e := range s.entries[start:end] {
		if q.Platform != "" && e.meta.Platform != q.Platform {
			continue
		}
		if q.GitRev != "" && e.meta.GitRev != q.GitRev {
			continue
		}
		if !q.Since.IsZero() && e.meta.TimestampNS < q.Since.UnixNano() {
			continue
		}
		if !q.Until.IsZero() && e.meta.TimestampNS > q.Until.UnixNano() {
			continue
		}
		matches = append(matches, e)
	}
	// Newest first, sequence as the tiebreaker.
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].meta.TimestampNS != matches[j].meta.TimestampNS {
			return matches[i].meta.TimestampNS > matches[j].meta.TimestampNS
		}
		return matches[i].seq > matches[j].seq
	})
	total := len(matches)
	if q.Offset > 0 {
		if q.Offset >= len(matches) {
			matches = nil
		} else {
			matches = matches[q.Offset:]
		}
	}
	if q.Limit > 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	out := make([]Entry, len(matches))
	for i, e := range matches {
		out[i] = Entry{ID: entryID(e.seg, e.off), Meta: e.meta, seg: e.seg, off: e.off, plen: e.plen}
	}
	return out, total, nil
}

// Metas returns the meta of every record matching q (unpaged) — the
// drift detector's feed. Index-only; no segment bytes are read.
func (s *Store) Metas(q Query) ([]Meta, error) {
	q.Offset, q.Limit = 0, 0
	entries, _, err := s.Query(q)
	if err != nil {
		return nil, err
	}
	metas := make([]Meta, len(entries))
	for i, e := range entries {
		metas[i] = e.Meta
	}
	return metas, nil
}

// Get reads one entry's report body — exactly the bytes Append stored.
// Only that record's byte range is read (plus its 8-byte header), and
// the payload CRC is verified on the way out.
func (s *Store) Get(e Entry) ([]byte, error) {
	f, err := s.readHandle(e.seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, recordHeaderSize+int(e.plen))
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("histstore: read %s: %w", e.ID, err)
	}
	s.readBytes.Add(int64(len(buf)))
	rec, err := decodeRecord(buf)
	if err != nil {
		return nil, fmt.Errorf("histstore: record %s: %w", e.ID, err)
	}
	return rec.report, nil
}

// ErrUnknownRecord is what GetID's error wraps for an ID that is
// malformed or names no stored record. Any other GetID error means the
// store holds the record but could not read it.
var ErrUnknownRecord = errors.New("histstore: unknown record")

// GetID resolves a record address from Entry.ID and reads its report.
func (s *Store) GetID(id string) (Meta, []byte, error) {
	var seg uint32
	var off int64
	if _, err := fmt.Sscanf(id, "%d:%d", &seg, &off); err != nil ||
		id != entryID(seg, off) {
		return Meta{}, nil, fmt.Errorf("%w: malformed id %q (want \"segment:offset\")", ErrUnknownRecord, id)
	}
	s.mu.RLock()
	found := s.byAddr[recAddr{seg, off}]
	s.mu.RUnlock()
	if found == nil {
		return Meta{}, nil, fmt.Errorf("%w %q", ErrUnknownRecord, id)
	}
	body, err := s.Get(Entry{ID: id, Meta: found.meta, seg: found.seg, off: found.off, plen: found.plen})
	return found.meta, body, err
}

// readHandle returns (opening lazily) the read handle for a segment.
func (s *Store) readHandle(id uint32) (*os.File, error) {
	if v, ok := s.handles.Load(id); ok {
		return v.(*os.File), nil
	}
	f, err := os.Open(filepath.Join(s.dir, segmentName(id)))
	if err != nil {
		return nil, err
	}
	if prev, loaded := s.handles.LoadOrStore(id, f); loaded {
		f.Close()
		return prev.(*os.File), nil
	}
	return f, nil
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	segs := len(s.covered)
	records := len(s.entries)
	s.mu.RUnlock()
	st := Stats{
		Segments:       segs,
		Records:        records,
		Bytes:          s.segBytes.Load(),
		Appends:        s.appends.Load(),
		AppendBytes:    s.appendBytes.Load(),
		ReadBytes:      s.readBytes.Load(),
		SkippedRecords: s.skipped.Load(),
		TruncatedBytes: s.truncated.Load(),
	}
	if ns := s.lastAppendNS.Load(); ns != 0 {
		st.LastAppend = time.Unix(0, ns)
	}
	return st
}

// FlushIndex persists the index file if the in-memory index has
// changed since the last write.
func (s *Store) FlushIndex() error {
	if !s.indexDirty.Swap(false) {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return writeIndexFile(s.dir, s.nextSeq, s.covered, s.entries)
}

// Close flushes the index and releases every file handle. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := writeIndexFile(s.dir, s.nextSeq, s.covered, s.entries)
	s.indexDirty.Store(false)
	werr := s.w.Close()
	s.mu.Unlock()
	s.handles.Range(func(k, v any) bool {
		v.(*os.File).Close()
		s.handles.Delete(k)
		return true
	})
	if err != nil {
		return err
	}
	return werr
}

// VerifyReport summarizes a full-store verification pass.
type VerifyReport struct {
	Segments       int   `json:"segments"`
	Records        int   `json:"records"`
	IndexedRecords int   `json:"indexed_records"`
	CorruptRecords int   `json:"corrupt_records"`
	DeadBytes      int64 `json:"dead_bytes"`
	// Problems lists one line per defect found, bounded at 100.
	Problems []string `json:"problems,omitempty"`
}

// Ok reports whether the store verified clean.
func (r VerifyReport) Ok() bool {
	return r.CorruptRecords == 0 && r.DeadBytes == 0 && len(r.Problems) == 0
}

// Verify re-reads every segment end to end, checking each record's
// frame and CRC, and cross-checks the count against the index. Unlike
// Open it does not repair anything: it reports the store as the bytes
// on disk are. A non-Ok report means Compact (or restoring from a
// replica) is needed.
func (s *Store) Verify() (VerifyReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rep := VerifyReport{IndexedRecords: len(s.entries)}
	segs, err := listSegments(s.dir)
	if err != nil {
		return rep, err
	}
	problem := func(format string, args ...any) {
		if len(rep.Problems) < 100 {
			rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
		}
	}
	for _, id := range segs {
		rep.Segments++
		path := filepath.Join(s.dir, segmentName(id))
		buf, err := os.ReadFile(path)
		if err != nil {
			return rep, err
		}
		s.readBytes.Add(int64(len(buf)))
		if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
			problem("%s: missing segment magic", segmentName(id))
			rep.DeadBytes += int64(len(buf))
			continue
		}
		pos := int64(len(segMagic))
		for pos < int64(len(buf)) {
			rec, err := decodeRecord(buf[pos:])
			switch {
			case err == nil:
				rep.Records++
				pos += rec.size
			case errors.Is(err, errCorrupt):
				rep.CorruptRecords++
				problem("%s: corrupt record at offset %d (CRC mismatch)", segmentName(id), pos)
				pos += rec.size
			default:
				dead := int64(len(buf)) - pos
				rep.DeadBytes += dead
				problem("%s: unparsable region at offset %d (%d bytes)", segmentName(id), pos, dead)
				pos = int64(len(buf))
			}
		}
	}
	if rep.Records != rep.IndexedRecords {
		problem("index holds %d records, segments hold %d", rep.IndexedRecords, rep.Records)
	}
	if !rep.Ok() {
		return rep, fmt.Errorf("histstore: verification failed: %s", strings.Join(rep.Problems, "; "))
	}
	return rep, nil
}

// Compact rewrites every indexed record into fresh segments, dropping
// corrupt records and dead bytes, and rewrites the index. Segment ids
// continue past the old ones, so a crash mid-compact leaves the old
// segments readable (at worst with duplicate records, which the next
// successful Compact removes by rewriting from the index).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("histstore: store is closed")
	}
	oldSegs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	// Read every live record before touching anything.
	type liveRec struct {
		e   *ixEntry
		rec []byte
	}
	live := make([]liveRec, 0, len(s.entries))
	for _, e := range s.entries {
		f, err := s.readHandle(e.seg)
		if err != nil {
			return err
		}
		buf := make([]byte, recordHeaderSize+int(e.plen))
		if _, err := f.ReadAt(buf, e.off); err != nil {
			return fmt.Errorf("histstore: compact read %s: %w", entryID(e.seg, e.off), err)
		}
		s.readBytes.Add(int64(len(buf)))
		if _, err := decodeRecord(buf); err != nil {
			return fmt.Errorf("histstore: compact: record %s: %w", entryID(e.seg, e.off), err)
		}
		live = append(live, liveRec{e: e, rec: buf})
	}

	// Write the survivors into fresh segments with new ids.
	if err := s.w.Close(); err != nil {
		return err
	}
	newFirst := s.active + 1
	s.active = newFirst
	s.covered = map[uint32]int64{}
	s.segBytes.Store(0)
	if err := s.openActive(); err != nil {
		return err
	}
	for _, lr := range live {
		if s.covered[s.active] >= s.opts.SegmentBytes {
			if err := s.rotateLocked(); err != nil {
				return err
			}
		}
		off := s.covered[s.active]
		if _, err := s.w.Write(lr.rec); err != nil {
			return err
		}
		// New segment ids follow every old one, so a moved entry's new
		// address never collides with one not yet moved.
		delete(s.byAddr, lr.e.addr())
		lr.e.seg = s.active
		lr.e.off = off
		s.byAddr[lr.e.addr()] = lr.e
		s.covered[s.active] = off + int64(len(lr.rec))
		s.segBytes.Add(int64(len(lr.rec)))
	}
	if err := writeIndexFile(s.dir, s.nextSeq, s.covered, s.entries); err != nil {
		return err
	}
	s.indexDirty.Store(false)

	// Only now is it safe to drop the old segments and their handles.
	for _, id := range oldSegs {
		if id >= newFirst {
			continue
		}
		if v, ok := s.handles.LoadAndDelete(id); ok {
			v.(*os.File).Close()
		}
		if err := os.Remove(filepath.Join(s.dir, segmentName(id))); err != nil {
			return err
		}
	}
	return nil
}
