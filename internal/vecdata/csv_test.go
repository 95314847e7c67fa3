package vecdata

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"selnet/internal/distance"
)

func TestReadCSVBasic(t *testing.T) {
	in := "1.5,2.5,3.5\n# comment\n\n-1,0,4e-2\n"
	db, err := ReadCSV(strings.NewReader(in), "test", distance.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 || db.Dim != 3 {
		t.Fatalf("size %d dim %d", db.Size(), db.Dim)
	}
	if db.Vecs[1][2] != 0.04 {
		t.Fatalf("scientific notation not parsed: %v", db.Vecs[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"ragged": "1,2\n1,2,3\n",
		"badnum": "1,banana\n",
		"empty":  "# only comments\n\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in), "x", distance.Euclidean); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Non-finite components parse as floats but are rejected, naming the
	// line and component like the other errors.
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400"} {
		in := "1,2,3\n# comment\n4," + bad + ",6\n"
		_, err := ReadCSV(strings.NewReader(in), "x", distance.Euclidean)
		if err == nil || !strings.Contains(err.Error(), "line 3 component 2") {
			t.Fatalf("%s: err = %v, want an error naming line 3 component 2", bad, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := smallDB(90, 25, 4, distance.Cosine)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, db.Name, db.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != db.Size() || got.Dim != db.Dim {
		t.Fatalf("shape mismatch")
	}
	for i := range db.Vecs {
		for j := range db.Vecs[i] {
			if got.Vecs[i][j] != db.Vecs[i][j] {
				t.Fatalf("value (%d,%d) changed: %v vs %v", i, j, got.Vecs[i][j], db.Vecs[i][j])
			}
		}
	}
}

func TestReadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vecs.csv")
	db := smallDB(91, 10, 3, distance.Euclidean)
	f, err := openForWrite(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(f, db); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVFile(path, distance.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 10 {
		t.Fatalf("size %d", got.Size())
	}
	if _, err := ReadCSVFile(filepath.Join(dir, "missing.csv"), distance.Euclidean); err == nil {
		t.Fatalf("expected error for missing file")
	}
}
