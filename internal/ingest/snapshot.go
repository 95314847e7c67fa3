package ingest

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"selnet/internal/distance"
	"selnet/internal/estimator"
	"selnet/internal/modelcodec"
	"selnet/internal/vecdata"
)

// A snapshot persists one model's recovery base: the pipeline's private
// database and the current model weights, stamped with the journal
// sequence they reflect. Snapshots are written to a temp file, fsynced
// and renamed into place, so a crash mid-write leaves the previous
// snapshot intact; once a snapshot is durable the WAL's prefix up to its
// sequence is redundant and Compact drops it. On boot, recovery loads
// the snapshot (or falls back to the operator-supplied database at
// sequence zero) and replays the WAL's surviving records through the
// normal ingest pipeline.

const snapMagic = "SELSNAP1"

// snapshotHeader is the gob wire form of a snapshot's metadata.
type snapshotHeader struct {
	AppliedSeq uint64
	Name       string
	Dist       int
	Dim        int
	Rows       int
	HasModel   bool
}

// modelSnapshot is an in-memory snapshot awaiting write or just loaded.
type modelSnapshot struct {
	appliedSeq uint64
	db         *vecdata.Database
	model      estimator.Estimator // nil when the snapshot carries no weights
}

// writeSnapshot atomically replaces path with the snapshot.
func writeSnapshot(path, name string, s modelSnapshot) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	bw := bufio.NewWriter(f)
	h := snapshotHeader{
		AppliedSeq: s.appliedSeq,
		Name:       name,
		Dist:       int(s.db.Dist),
		Dim:        s.db.Dim,
		Rows:       s.db.Size(),
		HasModel:   s.model != nil,
	}
	if _, err := bw.WriteString(snapMagic); err != nil {
		f.Close()
		return err
	}
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		f.Close()
		return fmt.Errorf("ingest: encode snapshot header: %w", err)
	}
	if err := enc.Encode(s.db.Vecs); err != nil {
		f.Close()
		return fmt.Errorf("ingest: encode snapshot vectors: %w", err)
	}
	if s.model != nil {
		// The kind-tagged container keeps the byte layout older builds
		// wrote, so pre-existing snapshots still load and selnet-kind
		// snapshots stay readable by older builds.
		if err := modelcodec.Save(bw, s.model); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// loadSnapshot reads a snapshot; ok=false when none exists.
func loadSnapshot(path, name string) (modelSnapshot, bool, error) {
	var s modelSnapshot
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return s, false, nil
	}
	if err != nil {
		return s, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapMagic {
		return s, false, fmt.Errorf("ingest: %s is not a snapshot file", path)
	}
	var h snapshotHeader
	dec := gob.NewDecoder(br)
	if err := dec.Decode(&h); err != nil {
		return s, false, fmt.Errorf("ingest: decode snapshot header: %w", err)
	}
	if h.Name != name {
		return s, false, fmt.Errorf("ingest: %s belongs to model %q, not %q", path, h.Name, name)
	}
	var vecs [][]float64
	if err := dec.Decode(&vecs); err != nil {
		return s, false, fmt.Errorf("ingest: decode snapshot vectors: %w", err)
	}
	if len(vecs) != h.Rows {
		return s, false, fmt.Errorf("ingest: snapshot %s holds %d rows, header says %d", path, len(vecs), h.Rows)
	}
	s.appliedSeq = h.AppliedSeq
	s.db = vecdata.NewDatabase(name, distance.Func(h.Dist), vecs)
	if h.HasModel {
		m, err := modelcodec.Load(br)
		if err != nil {
			return s, false, fmt.Errorf("ingest: snapshot %s model: %w", path, err)
		}
		s.model = m
	}
	return s, true, nil
}

// ----------------------------------------------------------------------------
// Journal directory layout

// journalFileBase escapes a model name into a filesystem-safe stem.
func journalFileBase(name string) string {
	return url.PathEscape(name)
}

func walPath(dir, name string) string {
	return filepath.Join(dir, journalFileBase(name)+".wal")
}

func snapshotPath(dir, name string) string {
	return filepath.Join(dir, journalFileBase(name)+".snap")
}

// JournalFileInfo describes one WAL found by ScanJournalDir.
type JournalFileInfo struct {
	Path        string
	Model       string
	Entries     int
	BaseApplied uint64
	Bytes       int64
}

// ScanJournalDir lists the WALs in a journal directory without opening
// them for writing — the daemon uses it at boot to warn about journals
// whose models are not configured for ingestion (their accepted batches
// would otherwise silently never replay).
func ScanJournalDir(dir string) ([]JournalFileInfo, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []JournalFileInfo
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".wal") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		scan, err := scanWAL(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, JournalFileInfo{
			Path:        path,
			Model:       scan.name,
			Entries:     len(scan.entries),
			BaseApplied: scan.baseApplied,
			Bytes:       int64(len(b)),
		})
	}
	return out, nil
}
