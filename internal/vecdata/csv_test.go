package vecdata

import (
	"bytes"
	"fmt"
	"math"
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
	// Finite coordinates whose distances overflow are rejected too: a
	// 300-row, 4-d file with 1e200·(1+i) on every tenth row made the
	// workload labels disagree with Selectivity on 60 of 1 200 Euclidean
	// and 120 of 1 200 cosine queries.
	var big strings.Builder
	for i := 0; i < 300; i++ {
		x := 0.5 + float64(i%7)/10
		if i%10 == 0 {
			x = 1e200 * float64(1+i)
		}
		fmt.Fprintf(&big, "%g,0.25,0.5,0.75\n", x)
	}
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		_, err := ReadCSV(strings.NewReader(big.String()), "x", dist)
		if err == nil || !strings.Contains(err.Error(), "line 1:") || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("%s: err = %v, want an overflow error naming line 1", dist, err)
		}
	}
	// The bound sits at a squared norm of MaxFloat64/8.
	edge := math.Sqrt(math.MaxFloat64 / 8)
	for _, c := range []struct {
		x  float64
		ok bool
	}{{edge * (1 - 1e-15), true}, {edge * (1 + 1e-15), false}} {
		_, err := ReadCSV(strings.NewReader(fmt.Sprintf("%g,0\n", c.x)), "x", distance.Euclidean)
		if (err == nil) != c.ok {
			t.Fatalf("x = %g: err = %v, want accepted %v", c.x, err, c.ok)
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
