package ingest

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzScanWAL drives the log scanner over arbitrary images: it must
// never panic, a successful scan's good offset lies within the image,
// and what it recovers is stable — re-framing the recovered header and
// entries and scanning again yields the same name, base and entries
// (values compared, not bytes: binary.Uvarint accepts overlong
// encodings, which re-encode shorter). The seed corpus is a log written
// through OpenWAL and Append, whole, with a torn tail and with one CRC
// byte flipped.
//
//	go test -run '^$' -fuzz '^FuzzScanWAL$' -fuzztime 20s ./internal/ingest/
func FuzzScanWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "m.wal")
	w, _, err := OpenWAL(path, "m")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []Entry{
		testEntry(1, 10),
		{Seq: 2, At: time.Unix(0, -99), Delete: [][]float64{{math.Inf(1), math.Copysign(0, -1)}}},
		testEntry(5, 30, 31),
	} {
		if err := w.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-5])
	flipped := append([]byte(nil), log...)
	flipped[len(walMagic)+4] ^= 0x40 // the header record's CRC
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := scanWAL(b)
		if err != nil {
			return
		}
		if s.good < int64(len(walMagic)) || s.good > int64(len(b)) {
			t.Fatalf("good = %d outside [%d, %d]", s.good, len(walMagic), len(b))
		}
		img := append([]byte(walMagic), frameWALRecord(encodeWALHeader(s.name, s.baseApplied))...)
		for _, e := range s.entries {
			img = append(img, frameWALRecord(encodeWALOps(e))...)
		}
		again, err := scanWAL(img)
		if err != nil {
			t.Fatalf("re-framed log does not scan: %v", err)
		}
		if again.good != int64(len(img)) {
			t.Errorf("re-framed log scans %d of %d bytes", again.good, len(img))
		}
		if again.name != s.name || again.baseApplied != s.baseApplied || len(again.entries) != len(s.entries) {
			t.Fatalf("re-scan = (%q, %d, %d entries), want (%q, %d, %d)",
				again.name, again.baseApplied, len(again.entries), s.name, s.baseApplied, len(s.entries))
		}
		for i, e := range s.entries {
			if g := again.entries[i]; g.Seq != e.Seq || g.At.UnixNano() != e.At.UnixNano() ||
				!sameVecBits(g.Insert, e.Insert) || !sameVecBits(g.Delete, e.Delete) {
				t.Fatalf("entry %d re-scans as %+v, want %+v", i, g, e)
			}
		}
	})
}

func sameVecBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
