package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// This file implements the durable half of the update journal: a
// length-prefixed, CRC-checksummed write-ahead log, one file per model.
// Every accepted update batch is encoded as one record and appended
// under the journal lock; the fsync is group-committed (Sync) outside
// it, so concurrent producers to the same model share one fsync and the
// HTTP 202 is only sent once the batch is on disk. On open, the log is
// scanned record by record and a truncated or corrupt tail is discarded
// by truncating the file back to the last intact record. Applied
// prefixes are dropped by Compact once a database snapshot has made
// them redundant, which keeps the log bounded.
//
// File layout:
//
//	magic "SELWAL01"
//	record*          u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Payloads begin with a type byte:
//
//	header (1)  uvarint name length, name bytes, uvarint base applied seq
//	ops    (2)  uvarint seq, varint unix-nanos, uvarint dim,
//	            uvarint #inserts, inserts (dim x float64 bits, LE),
//	            uvarint #deletes, deletes
//
// The header is always the first record; compaction rewrites it with the
// snapshot's applied sequence so recovery can detect a log whose
// discarded prefix has no surviving snapshot (an unrecoverable state
// that is reported, never silently absorbed).

const walMagic = "SELWAL01"

const (
	walRecHeader byte = 1
	walRecOps    byte = 2
)

// maxWALRecord bounds a single record; larger length prefixes are
// treated as corruption (the HTTP layer caps request bodies at 16 MiB).
const maxWALRecord = 64 << 20

// WAL is one model's write-ahead log. Append/Sync implement the
// journalStore seam; Compact and Close are driven by the pipeline.
type WAL struct {
	path string
	name string

	mu          sync.Mutex // file writes and size bookkeeping
	f           *os.File
	size        int64 // bytes written (buffered + durable)
	records     int   // ops records in the file
	baseApplied uint64
	appends     uint64
	failed      bool // a partial write poisoned the tail; refuse appends
	closed      bool

	// syncMu serializes fsyncs and orders them against compaction. Where
	// both are held, syncMu is taken before mu.
	syncMu      sync.Mutex
	synced      int64 // bytes known durable
	syncs       uint64
	compactions uint64
}

// WALRecovered reports what OpenWAL found in an existing log.
type WALRecovered struct {
	// Entries are the ops records in file order (seqs strictly
	// increasing). Entries at or below a snapshot's applied sequence are
	// filtered by the caller.
	Entries []Entry
	// BaseApplied is the header watermark: the applied sequence the log
	// was last compacted to. Ops at or below it have been dropped and
	// must be covered by a snapshot.
	BaseApplied uint64
	// DiscardedBytes counts truncated/corrupt tail bytes dropped on open.
	DiscardedBytes int64
}

// WALStats is a point-in-time snapshot of the log's counters.
type WALStats struct {
	Path        string
	Size        int64
	Synced      int64
	Records     int
	BaseApplied uint64
	Appends     uint64
	Syncs       uint64
	Compactions uint64
}

// OpenWAL opens (or creates) the log at path for the named model,
// recovering its intact records and truncating any corrupt tail.
func OpenWAL(path, model string) (*WAL, WALRecovered, error) {
	var rec WALRecovered
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, rec, err
	}

	w := &WAL{path: path, name: model}
	if len(b) == 0 {
		// Fresh (or empty — a crash between create and the first write)
		// log: magic plus a header record at watermark zero.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, rec, err
		}
		init := append([]byte(walMagic), frameWALRecord(encodeWALHeader(model, 0))...)
		if _, err := f.Write(init); err != nil {
			f.Close()
			return nil, rec, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, rec, err
		}
		w.f = f
		w.size = int64(len(init))
		w.synced = w.size
		return w, rec, nil
	}

	scan, err := scanWAL(b)
	if err != nil {
		return nil, rec, fmt.Errorf("ingest: %s: %w", path, err)
	}
	if scan.name == "" {
		// Valid magic but no intact header record: a crash tore the
		// initial write after the magic reached disk. Nothing was ever
		// appended (ops records cannot precede the header), so rebuild the
		// log fresh — same as the zero-byte case, one write later.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, rec, err
		}
		init := append([]byte(walMagic), frameWALRecord(encodeWALHeader(model, 0))...)
		if _, err := f.Write(init); err != nil {
			f.Close()
			return nil, rec, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, rec, err
		}
		w.f = f
		w.size = int64(len(init))
		w.synced = w.size
		rec.DiscardedBytes = int64(len(b)) - int64(len(walMagic))
		return w, rec, nil
	}
	if scan.name != model {
		return nil, rec, fmt.Errorf("ingest: %s belongs to model %q, not %q", path, scan.name, model)
	}
	rec.Entries = scan.entries
	rec.BaseApplied = scan.baseApplied
	rec.DiscardedBytes = int64(len(b)) - scan.good

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, rec, err
	}
	if rec.DiscardedBytes > 0 {
		// Drop the corrupt tail so appends continue from the last intact
		// record instead of burying new records behind garbage.
		if err := f.Truncate(scan.good); err != nil {
			f.Close()
			return nil, rec, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, rec, err
		}
	}
	if _, err := f.Seek(scan.good, 0); err != nil {
		f.Close()
		return nil, rec, err
	}
	w.f = f
	w.size = scan.good
	w.synced = w.size
	w.records = len(scan.entries)
	w.baseApplied = scan.baseApplied
	return w, rec, nil
}

// Append buffers one ops record. The caller holds the owning journal's
// lock, which is what orders sequence assignment and file position;
// durability comes from the Sync that follows outside that lock.
func (w *WAL) Append(e Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return fmt.Errorf("ingest: wal %s is closed", w.path)
	case w.failed:
		return fmt.Errorf("ingest: wal %s is poisoned by an earlier write/sync failure", w.path)
	}
	rec := frameWALRecord(encodeWALOps(e))
	if _, err := w.f.Write(rec); err != nil {
		// A partial write leaves garbage at the tail; anything appended
		// after it would be unreachable on replay, so fail hard instead.
		w.failed = true
		return fmt.Errorf("ingest: wal append: %w", err)
	}
	w.size += int64(len(rec))
	w.records++
	w.appends++
	return nil
}

// Sync makes every previously appended record durable. Concurrent
// callers group-commit: whoever wins the sync lock fsyncs on behalf of
// every record written before it, and the rest return without another
// fsync.
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	target := w.size
	f, closed, failed, synced := w.f, w.closed, w.failed, w.synced
	w.mu.Unlock()
	switch {
	case closed:
		return fmt.Errorf("ingest: wal %s is closed", w.path)
	case failed:
		// An earlier write or fsync failed: durability of the tail is
		// unknown and must not be re-promised until Compact rebuilds the
		// log on a fresh file.
		return fmt.Errorf("ingest: wal %s is poisoned by an earlier write/sync failure", w.path)
	case synced >= target:
		return nil
	}
	if err := f.Sync(); err != nil {
		// Latch the failure: after a reported fsync error the kernel may
		// drop the dirty pages, so a retried fsync that "succeeds" proves
		// nothing about these records. Refuse further acks instead.
		w.mu.Lock()
		w.failed = true
		w.mu.Unlock()
		return fmt.Errorf("ingest: wal sync: %w", err)
	}
	w.mu.Lock()
	if target > w.synced {
		w.synced = target
	}
	w.syncs++
	w.mu.Unlock()
	return nil
}

// Compact rewrites the log keeping only ops past the applied sequence,
// recording applied as the new header watermark. The caller must have
// made a snapshot at applied durable first — compaction deliberately
// destroys the replay history it covers.
//
// The expensive part — reading and re-encoding the stable prefix — runs
// without the append lock, so producers keep acking while the rewrite
// happens; w.mu is only held to splice in records appended meanwhile
// and swap the file handle (records below a recorded size are immutable,
// since the log is append-only and size advances only on full writes).
func (w *WAL) Compact(applied uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("ingest: wal %s is closed", w.path)
	}
	size0 := w.size
	w.mu.Unlock()

	prefix, err := readFileRange(w.path, 0, size0)
	if err != nil {
		return fmt.Errorf("ingest: wal compact: %w", err)
	}
	scan, err := scanWAL(prefix)
	if err != nil {
		return fmt.Errorf("ingest: wal compact: %w", err)
	}
	if scan.good != size0 {
		return fmt.Errorf("ingest: wal compact: %s prefix scan stopped at %d of %d bytes", w.path, scan.good, size0)
	}
	out := append([]byte(walMagic), frameWALRecord(encodeWALHeader(w.name, applied))...)
	kept := 0
	for _, e := range scan.entries {
		if e.Seq > applied {
			out = append(out, frameWALRecord(encodeWALOps(e))...)
			kept++
		}
	}

	tmp := w.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op once the rename below succeeds
	if _, err := tf.Write(out); err != nil {
		tf.Close()
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		tf.Close()
		return fmt.Errorf("ingest: wal %s is closed", w.path)
	}
	// Splice in whole records appended during the rewrite; they are
	// immutable now that the append lock is held. (Garbage past w.size
	// from a failed partial write is deliberately dropped, which also
	// clears the poison latch on a fresh, fully-synced file.)
	deltaLen := w.size - size0
	if deltaLen > 0 {
		delta, err := readFileRange(w.path, size0, deltaLen)
		if err != nil {
			tf.Close()
			return err
		}
		if _, err := tf.Write(delta); err != nil {
			tf.Close()
			return err
		}
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	newSize := int64(len(out)) + deltaLen
	if _, err := f.Seek(newSize, 0); err != nil {
		f.Close()
		return err
	}
	w.f.Close()
	w.f = f
	w.records += kept - len(scan.entries) // dropped prefix entries; delta records unchanged
	w.size = newSize
	w.synced = newSize
	w.baseApplied = applied
	w.failed = false
	w.compactions++
	return nil
}

// readFileRange reads length bytes at offset from path via an
// independent handle, without touching the writer's file position.
func readFileRange(path string, offset, length int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, length)
	if _, err := f.ReadAt(b, offset); err != nil {
		return nil, err
	}
	return b, nil
}

// Close fsyncs and closes the file. Further appends fail.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Path:        w.path,
		Size:        w.size,
		Synced:      w.synced,
		Records:     w.records,
		BaseApplied: w.baseApplied,
		Appends:     w.appends,
		Syncs:       w.syncs,
		Compactions: w.compactions,
	}
}

// sizeBytes reports the current file size without the full Stats copy.
func (w *WAL) sizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// ----------------------------------------------------------------------------
// Record codec

// frameWALRecord wraps a payload with its length prefix and checksum.
func frameWALRecord(payload []byte) []byte {
	rec := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

func encodeWALHeader(name string, baseApplied uint64) []byte {
	b := []byte{walRecHeader}
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, baseApplied)
	return b
}

func encodeWALOps(e Entry) []byte {
	dim := 0
	if len(e.Insert) > 0 {
		dim = len(e.Insert[0])
	} else if len(e.Delete) > 0 {
		dim = len(e.Delete[0])
	}
	b := make([]byte, 1, 32+8*dim*(len(e.Insert)+len(e.Delete)))
	b[0] = walRecOps
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendVarint(b, e.At.UnixNano())
	b = binary.AppendUvarint(b, uint64(dim))
	b = binary.AppendUvarint(b, uint64(len(e.Insert)))
	for _, v := range e.Insert {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.Delete)))
	for _, v := range e.Delete {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// walScan is the result of parsing a log image.
type walScan struct {
	name        string
	baseApplied uint64
	entries     []Entry
	good        int64 // offset just past the last intact record
}

// scanWAL parses a log image, stopping at the first truncated or corrupt
// record: everything past that point is untrusted (a torn tail write, or
// real corruption) and reported via good for the caller to truncate. A
// bad magic or header is a hard error — that is not a damaged tail but
// the wrong file.
func scanWAL(b []byte) (walScan, error) {
	var s walScan
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		return s, fmt.Errorf("not a selnet WAL (bad magic)")
	}
	off := int64(len(walMagic))
	first := true
	var lastSeq uint64
	for {
		payload, next, ok := nextWALRecord(b, off)
		if !ok {
			break
		}
		typ := payload[0]
		switch {
		case first:
			if typ != walRecHeader {
				return s, fmt.Errorf("first record is type %d, want header", typ)
			}
			name, base, ok := decodeWALHeader(payload)
			if !ok {
				return s, fmt.Errorf("malformed header record")
			}
			s.name, s.baseApplied = name, base
			lastSeq = base
			first = false
		case typ == walRecOps:
			e, ok := decodeWALOps(payload)
			if !ok || e.Seq <= lastSeq {
				// A CRC-valid but undecodable or out-of-order record means
				// the writer was cut off mid-stream in a way the checksum
				// happens to cover, or an overlapping historical write;
				// either way nothing past it is trustworthy.
				return finishScan(s, off), nil
			}
			lastSeq = e.Seq
			s.entries = append(s.entries, e)
		default:
			return finishScan(s, off), nil
		}
		off = next
	}
	return finishScan(s, off), nil
}

func finishScan(s walScan, good int64) walScan {
	s.good = good
	return s
}

// nextWALRecord extracts the record at off, reporting ok=false when the
// bytes there do not form an intact record (short frame, oversized
// length, CRC mismatch, empty payload).
func nextWALRecord(b []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+8 > int64(len(b)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(b[off : off+4]))
	crc := binary.LittleEndian.Uint32(b[off+4 : off+8])
	if n < 1 || n > maxWALRecord || off+8+n > int64(len(b)) {
		return nil, 0, false
	}
	payload = b[off+8 : off+8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

func decodeWALHeader(p []byte) (name string, baseApplied uint64, ok bool) {
	r := walReader{b: p[1:]}
	n := r.uvarint()
	nameB := r.bytes(int(n))
	base := r.uvarint()
	if r.bad || !r.done() {
		return "", 0, false
	}
	return string(nameB), base, true
}

func decodeWALOps(p []byte) (Entry, bool) {
	r := walReader{b: p[1:]}
	var e Entry
	e.Seq = r.uvarint()
	e.At = time.Unix(0, r.varint())
	dim64 := r.uvarint()
	// Bound dim before it feeds any size arithmetic: a corrupt record
	// must fail decoding, not overflow into a huge allocation.
	if r.bad || dim64 > 1<<20 {
		return Entry{}, false
	}
	dim := int(dim64)
	e.Insert = r.vecs(dim)
	e.Delete = r.vecs(dim)
	if r.bad || !r.done() {
		return Entry{}, false
	}
	return e, true
}

// walReader is a cursor over a record payload that latches decode errors.
type walReader struct {
	b   []byte
	bad bool
}

func (r *walReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// vecs reads a counted block of dim-wide vectors. The caller bounds dim
// (<= 1<<20); the count is bounded by the remaining payload before any
// multiplication, so a corrupt record cannot overflow the size math
// into a bogus allocation.
func (r *walReader) vecs(dim int) [][]float64 {
	cnt := r.uvarint()
	if r.bad || cnt > uint64(len(r.b)) || (cnt > 0 && dim == 0) {
		r.bad = true
		return nil
	}
	n := int(cnt)
	if uint64(n)*uint64(dim)*8 > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*(i*dim+j):]))
		}
		out[i] = v
	}
	r.b = r.b[n*dim*8:]
	return out
}

func (r *walReader) done() bool { return len(r.b) == 0 }

// ----------------------------------------------------------------------------
// Durable file helpers

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
