package ingest

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

func testEntry(seq uint64, vals ...float64) Entry {
	ins := make([][]float64, len(vals))
	for i, v := range vals {
		ins[i] = []float64{v, v + 1}
	}
	return Entry{Seq: seq, At: time.Unix(0, 1234), Insert: ins}
}

func openTestWAL(t *testing.T, path string) (*WAL, WALRecovered) {
	t.Helper()
	w, rec, err := OpenWAL(path, "m")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, rec
}

func appendAll(t *testing.T, w *WAL, entries ...Entry) {
	t.Helper()
	for _, e := range entries {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, rec := openTestWAL(t, path)
	if len(rec.Entries) != 0 || rec.BaseApplied != 0 {
		t.Fatalf("fresh WAL recovered %+v", rec)
	}
	e1 := testEntry(1, 10)
	e2 := Entry{Seq: 2, At: time.Unix(0, 99), Delete: [][]float64{{10, 11}}}
	e3 := testEntry(3, 30, 31)
	appendAll(t, w, e1, e2, e3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec2 := openTestWAL(t, path)
	defer w2.Close()
	if len(rec2.Entries) != 3 || rec2.DiscardedBytes != 0 {
		t.Fatalf("recovered %d entries, %d discarded", len(rec2.Entries), rec2.DiscardedBytes)
	}
	got := rec2.Entries[2]
	if got.Seq != 3 || len(got.Insert) != 2 || got.Insert[1][0] != 31 || got.At.UnixNano() != 1234 {
		t.Fatalf("entry 3 corrupted: %+v", got)
	}
	if del := rec2.Entries[1]; len(del.Delete) != 1 || del.Delete[0][1] != 11 {
		t.Fatalf("delete entry corrupted: %+v", del)
	}
	// The reopened log accepts further appends with the file position at
	// the recovered tail.
	appendAll(t, w2, testEntry(4, 40))
	w2.Close()
	_, rec3 := openTestWAL(t, path)
	if len(rec3.Entries) != 4 {
		t.Fatalf("after reopen+append: %d entries", len(rec3.Entries))
	}
}

func TestWALEmptyFile(t *testing.T) {
	// A crash between create and the first write leaves a zero-byte file;
	// open must treat it as a fresh log, not corruption.
	path := filepath.Join(t.TempDir(), "m.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec := openTestWAL(t, path)
	if len(rec.Entries) != 0 || rec.DiscardedBytes != 0 {
		t.Fatalf("empty file recovered %+v", rec)
	}
	appendAll(t, w, testEntry(1, 5))
}

func TestWALTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _ := openTestWAL(t, path)
	appendAll(t, w, testEntry(1, 10), testEntry(2, 20))
	w.Close()
	// Tear the last record mid-payload, as a crash mid-write would.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := b[:len(b)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec := openTestWAL(t, path)
	if len(rec.Entries) != 1 || rec.Entries[0].Seq != 1 {
		t.Fatalf("recovered %+v, want entry 1 only", rec.Entries)
	}
	if rec.DiscardedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The tail must be physically gone so new appends are reachable.
	appendAll(t, w2, testEntry(2, 21))
	w2.Close()
	_, rec2 := openTestWAL(t, path)
	if len(rec2.Entries) != 2 || rec2.Entries[1].Insert[0][0] != 21 {
		t.Fatalf("after truncate+append: %+v", rec2.Entries)
	}
}

func TestWALCRCMismatchMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _ := openTestWAL(t, path)
	appendAll(t, w, testEntry(1, 10), testEntry(2, 20), testEntry(3, 30))
	w.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle record: everything from the
	// corrupt record on is untrusted and discarded, even though record 3
	// is intact — mid-file corruption is not a torn tail.
	mid := len(b) / 2
	b[mid] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openTestWAL(t, path)
	if len(rec.Entries) >= 3 {
		t.Fatalf("corrupt record did not stop the scan: %d entries", len(rec.Entries))
	}
	if rec.DiscardedBytes == 0 {
		t.Fatal("corruption not reported")
	}
	for _, e := range rec.Entries {
		if e.Seq >= 3 {
			t.Fatalf("entry past the corruption survived: %+v", e)
		}
	}
}

func TestWALTornHeaderRebuildsFreshLog(t *testing.T) {
	// A crash during creation can land after the magic but before (or
	// mid-) the header record. Nothing was ever appended, so open must
	// rebuild the log instead of failing the boot.
	path := filepath.Join(t.TempDir(), "m.wal")
	if err := os.WriteFile(path, []byte(walMagic+"\x07\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec := openTestWAL(t, path)
	if len(rec.Entries) != 0 || rec.DiscardedBytes == 0 {
		t.Fatalf("torn-header recovery %+v", rec)
	}
	appendAll(t, w, testEntry(1, 1))
	w.Close()
	_, rec2 := openTestWAL(t, path)
	if len(rec2.Entries) != 1 {
		t.Fatalf("rebuilt log recovered %+v", rec2)
	}
}

func TestWALOverflowingCountIsCorruption(t *testing.T) {
	// A CRC-valid record whose vector count would overflow the size
	// arithmetic must read as corruption (scan stops), never reach the
	// allocator.
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _ := openTestWAL(t, path)
	appendAll(t, w, testEntry(1, 1))
	w.Close()
	payload := []byte{walRecOps}
	payload = appendUvarint(payload, 2)             // seq
	payload = append(payload, 0)                    // varint time 0
	payload = appendUvarint(payload, 1)             // dim
	payload = appendUvarint(payload, 1<<61)         // insane insert count
	payload = append(payload, make([]byte, 128)...) // some body
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, frameWALRecord(payload)...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openTestWAL(t, path)
	if len(rec.Entries) != 1 || rec.DiscardedBytes == 0 {
		t.Fatalf("overflowing record not treated as corruption: %+v", rec)
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func TestWALBadMagicIsHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	if err := os.WriteFile(path, []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, "m"); err == nil {
		t.Fatal("foreign file opened as WAL")
	}
}

func TestWALModelNameMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _ := openTestWAL(t, path)
	w.Close()
	if _, _, err := OpenWAL(path, "other"); err == nil {
		t.Fatal("WAL for model m opened as other")
	}
}

func TestWALCompactDropsAppliedPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _ := openTestWAL(t, path)
	appendAll(t, w, testEntry(1, 1), testEntry(2, 2), testEntry(3, 3), testEntry(4, 4))
	before := w.Stats()
	if err := w.Compact(2); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 2 || st.BaseApplied != 2 || st.Compactions != 1 {
		t.Fatalf("post-compact stats %+v", st)
	}
	if st.Size >= before.Size {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size, st.Size)
	}
	// Appends continue on the compacted file and survive a reopen.
	appendAll(t, w, testEntry(5, 5))
	w.Close()
	_, rec := openTestWAL(t, path)
	if rec.BaseApplied != 2 || len(rec.Entries) != 3 {
		t.Fatalf("recovered base %d, %d entries; want 2, 3", rec.BaseApplied, len(rec.Entries))
	}
	if rec.Entries[0].Seq != 3 || rec.Entries[2].Seq != 5 {
		t.Fatalf("recovered seqs %+v", rec.Entries)
	}
}

// TestWALConcurrentAppendSyncCompactStats hammers the four WAL
// operations from separate goroutines: no record acknowledged by Sync
// may be lost across interleaved compactions, and (under -race) the
// locking must hold up. Run it with -race.
func TestWALConcurrentAppendSyncCompactStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _ := openTestWAL(t, path)
	const total = 200
	const compactTo = 50 // watermark: applied before the compactor starts
	// Seed the log past the watermark first — Compact's contract is that
	// `applied` is already applied, so live appends always carry higher
	// sequences than any concurrent compaction watermark.
	for seq := uint64(1); seq <= compactTo; seq++ {
		if err := w.Append(testEntry(seq, float64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := w.Compact(compactTo); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			w.Stats()
		}
	}()
	for seq := uint64(compactTo + 1); seq <= total; seq++ {
		if err := w.Append(testEntry(seq, float64(seq))); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	w.Close()
	_, rec := openTestWAL(t, path)
	if rec.BaseApplied != compactTo {
		t.Fatalf("base applied %d, want %d", rec.BaseApplied, compactTo)
	}
	// Every acknowledged record past the compaction watermark survived,
	// in order.
	if len(rec.Entries) != total-compactTo {
		t.Fatalf("recovered %d entries, want %d", len(rec.Entries), total-compactTo)
	}
	for i, e := range rec.Entries {
		if e.Seq != uint64(compactTo+i+1) {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, compactTo+i+1)
		}
	}
}

func TestJournalRestoreSkipsAppliedEntries(t *testing.T) {
	// Replay idempotence: when the snapshot's applied sequence is ahead
	// of (or equal to) surviving log entries, those entries must not be
	// queued again.
	j := newJournal(8, nil)
	n := j.restore(3, []Entry{testEntry(2, 2), testEntry(3, 3), testEntry(4, 4), testEntry(5, 5)})
	if n != 2 {
		t.Fatalf("restored %d entries, want 2 (seqs 4, 5)", n)
	}
	got := j.claim(10)
	if len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("claimed %+v", got)
	}
	// New sequence numbers continue past the restored tail.
	e, _, err := j.append([][]float64{{1, 2}}, nil)
	if err != nil || e.Seq != 6 {
		t.Fatalf("append after restore: seq %d err %v", e.Seq, err)
	}
	if _, applied, _ := j.snapshot(); applied != 3 {
		t.Fatalf("applied watermark %d, want 3", applied)
	}
}

func TestJournalRestoreAppliedAheadOfLog(t *testing.T) {
	// The watermark can sit past every surviving record (e.g. the log was
	// compacted right before the crash); nothing replays and sequences
	// continue from the watermark.
	j := newJournal(8, nil)
	if n := j.restore(7, []Entry{testEntry(6, 6), testEntry(7, 7)}); n != 0 {
		t.Fatalf("restored %d entries, want 0", n)
	}
	e, _, err := j.append([][]float64{{1, 2}}, nil)
	if err != nil || e.Seq != 8 {
		t.Fatalf("append: seq %d err %v", e.Seq, err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(40))
	db := vecdata.SyntheticFace(rng, 60, 4)
	m := tinyModel(41, db.Dim, 1.0)
	path := snapshotPath(dir, "m")
	if err := writeSnapshot(path, "m", modelSnapshot{appliedSeq: 9, db: db, model: m}); err != nil {
		t.Fatal(err)
	}
	s, ok, err := loadSnapshot(path, "m")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if s.appliedSeq != 9 || s.db.Size() != 60 || s.db.Dim != 4 || s.db.Dist != db.Dist {
		t.Fatalf("snapshot header %+v", s)
	}
	if s.model == nil {
		t.Fatal("model not restored")
	}
	q := db.Vecs[0]
	if got, want := s.model.Estimate(q, 0.5), m.Estimate(q, 0.5); got != want {
		t.Fatalf("restored model estimates %v, original %v", got, want)
	}
	if _, ok, _ := loadSnapshot(snapshotPath(dir, "ghost"), "ghost"); ok {
		t.Fatal("nonexistent snapshot loaded")
	}
	if _, _, err := loadSnapshot(path, "other"); err == nil {
		t.Fatal("snapshot for m loaded as other")
	}
}

// TestPipelineJournalRecovery is the in-process durability acceptance
// test: batches enqueued against a journaled pipeline must, after the
// process state is thrown away (a new pipeline over the same directory,
// with a fresh pristine database copy), be replayed so the database and
// counters converge to the pre-crash state.
func TestPipelineJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	db, wl, train, valid := testData(50, 150, 4, 8)
	pristine := db.Clone()
	m := tinyModel(51, db.Dim, wl.TMax)

	reg := serve.NewRegistry(nil)
	if _, err := reg.Publish("m", m, "test"); err != nil {
		t.Fatal(err)
	}
	p1 := New(Config{
		Registry: reg,
		Train:    tinyTrain(),
		Update:   neverRetrain(),
		Journal:  JournalConfig{Dir: dir},
	})
	if err := p1.Attach("m", m, db, train, valid); err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		ins := [][]float64{{float64(i), 1, 2, 3}}
		ack, err := p1.Enqueue("m", ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = ack.Seq
	}
	if !p1.WaitApplied("m", lastSeq) {
		t.Fatal("batches never applied")
	}
	st := p1.UpdaterStats()["m"]
	if !st.Durable || st.JournaledBatches != 5 {
		t.Fatalf("pre-crash stats %+v", st)
	}
	p1.Close()

	// The boot-time scan lists every WAL in the directory, the orphan of
	// a model no pipeline attaches included, without opening any.
	orphan, _, err := OpenWAL(walPath(dir, "gone/model"), "gone/model")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, orphan, testEntry(1, 1), testEntry(2, 2))
	orphan.Close()
	infos, err := ScanJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]int{}
	for _, info := range infos {
		if info.Path != walPath(dir, info.Model) || info.Bytes <= 0 {
			t.Fatalf("scan entry %+v", info)
		}
		entries[info.Model] = info.Entries
	}
	if len(infos) != 2 || entries["m"] != 5 || entries["gone/model"] != 2 {
		t.Fatalf("journal scan = %+v, want m with 5 entries and the orphan with 2", infos)
	}
	if infos, err := ScanJournalDir(filepath.Join(dir, "absent")); infos != nil || err != nil {
		t.Fatalf("scan of a missing directory = %v, %v; want nothing", infos, err)
	}

	// "Crash": p1 is gone; nothing of its in-memory state survives. A new
	// pipeline over the same journal dir starts from the pristine CSV-
	// equivalent database and must replay all five batches.
	var recovered Recovery
	p2 := New(Config{
		Registry: serve.NewRegistry(nil),
		Train:    tinyTrain(),
		Update:   neverRetrain(),
		Journal: JournalConfig{
			Dir:       dir,
			OnRecover: func(_ string, r Recovery) { recovered = r },
		},
	})
	t.Cleanup(p2.Close)
	train2 := append([]vecdata.Query(nil), train...)
	valid2 := append([]vecdata.Query(nil), valid...)
	if err := p2.Attach("m", tinyModel(52, db.Dim, wl.TMax), pristine, train2, valid2); err != nil {
		t.Fatal(err)
	}
	if recovered.Replayed != 5 || recovered.SnapshotSeq != 0 {
		t.Fatalf("recovery %+v, want 5 replayed from seq 0", recovered)
	}
	if !p2.WaitApplied("m", lastSeq) {
		t.Fatal("replayed batches never applied")
	}
	st2 := p2.UpdaterStats()["m"]
	if st2.AppliedSeq != lastSeq || st2.ReplayedBatches != 5 || st2.InsertedVecs != 5 {
		t.Fatalf("post-recovery stats %+v", st2)
	}
	if pristine.Size() != 155 {
		t.Fatalf("recovered database has %d vectors, want 155", pristine.Size())
	}
	// New batches continue the recovered sequence.
	ack, err := p2.Enqueue("m", [][]float64{{9, 9, 9, 9}}, nil)
	if err != nil || ack.Seq != lastSeq+1 {
		t.Fatalf("post-recovery enqueue: %+v err %v", ack, err)
	}
}

// TestPipelineSnapshotCompactReplay drives enough batches through a
// journaled pipeline to trigger snapshots, then recovers: the database
// must be rebuilt from the snapshot plus the replayed tail, and the
// snapshot's model weights must be published.
func TestPipelineSnapshotCompactReplay(t *testing.T) {
	dir := t.TempDir()
	db, wl, train, valid := testData(53, 150, 4, 8)
	m := tinyModel(54, db.Dim, wl.TMax)
	reg := serve.NewRegistry(nil)
	if _, err := reg.Publish("m", m, "test"); err != nil {
		t.Fatal(err)
	}
	p1 := New(Config{
		Registry: reg,
		Train:    tinyTrain(),
		Update:   neverRetrain(),
		Journal:  JournalConfig{Dir: dir, SnapshotEvery: 2},
	})
	if err := p1.Attach("m", m, db, train, valid); err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 9; i++ {
		ack, err := p1.Enqueue("m", [][]float64{{float64(i), 0, 0, 0}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = ack.Seq
		// Apply one at a time so snapshot requests actually fire between
		// enqueues instead of one coalesced cycle swallowing everything.
		if !p1.WaitApplied("m", ack.Seq) {
			t.Fatal("batch never applied")
		}
	}
	p1.Close()
	st := p1.UpdaterStats()["m"]
	if st.SnapshotSeq == 0 || st.Compactions == 0 {
		t.Fatalf("no snapshot/compaction after 9 cycles: %+v", st)
	}
	if st.JournalErrors != 0 {
		t.Fatalf("journal errors: %+v", st)
	}

	var recovered Recovery
	reg2 := serve.NewRegistry(nil)
	p2 := New(Config{
		Registry: reg2,
		Train:    tinyTrain(),
		Update:   neverRetrain(),
		Journal: JournalConfig{
			Dir:       dir,
			OnRecover: func(_ string, r Recovery) { recovered = r },
		},
	})
	t.Cleanup(p2.Close)
	pristine, _, train2, valid2 := testData(53, 150, 4, 8)
	if err := p2.Attach("m", tinyModel(55, db.Dim, wl.TMax), pristine, train2, valid2); err != nil {
		t.Fatal(err)
	}
	if recovered.SnapshotSeq == 0 || !recovered.RestoredModel {
		t.Fatalf("recovery %+v, want snapshot with model", recovered)
	}
	if recovered.SnapshotSeq+uint64(recovered.Replayed) < lastSeq {
		t.Fatalf("recovery %+v cannot cover seq %d", recovered, lastSeq)
	}
	if !p2.WaitApplied("m", lastSeq) {
		t.Fatal("tail never replayed")
	}
	// Snapshot base + replayed tail = the 9 inserts on top of 150.
	if got := p2.lookup("m").db.Size(); got != 159 {
		t.Fatalf("recovered database has %d vectors, want 159", got)
	}
	// The snapshot's model (not the freshly supplied one) is published.
	pub, ok := reg2.Get("m")
	if !ok || pub.Source == "test" {
		t.Fatalf("published model %+v does not come from the journal", pub)
	}
}

// TestJournalCompactedPastSnapshotFails covers the unrecoverable-state
// guard: a log whose compacted prefix has no surviving snapshot must
// refuse to attach rather than silently serve a hole.
func TestJournalCompactedPastSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(walPath(dir, "m"), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testEntry(3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(2); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// No snapshot file exists; base applied is 2.
	db, wl, train, valid := testData(56, 100, 2, 6)
	p := New(Config{
		Registry: serve.NewRegistry(nil),
		Train:    tinyTrain(),
		Update:   neverRetrain(),
		Journal:  JournalConfig{Dir: dir},
	})
	t.Cleanup(p.Close)
	err = p.Attach("m", tinyModel(57, db.Dim, wl.TMax), db, train, valid)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("no snapshot")) {
		t.Fatalf("attach: %v, want unrecoverable-journal error", err)
	}
}

// Sync is an immediate group commit: a lone producer's Sync fsyncs
// once, without waiting for company.
func TestWALLoneSyncIsImmediate(t *testing.T) {
	w, _ := openTestWAL(t, filepath.Join(t.TempDir(), "m.wal"))
	start := time.Now()
	appendAll(t, w, testEntry(1, 1))
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("sync took %v", d)
	}
	if st := w.Stats(); st.Syncs != 1 {
		t.Fatalf("syncs = %d, want 1", st.Syncs)
	}
}
