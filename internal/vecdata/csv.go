package vecdata

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"selnet/internal/distance"
)

// maxSquaredNorm is the largest squared norm ReadCSV accepts for a row.
const maxSquaredNorm = math.MaxFloat64 / 8

// ReadCSV parses a vector dataset from r: one vector per line,
// comma-separated finite float64 components, all lines the same width,
// each line's squared norm at most MaxFloat64/8.
// Blank lines and lines starting with '#' are skipped. This lets the estimators
// run on real embedding dumps (e.g. fasttext .vec files converted to CSV)
// instead of the synthetic stand-ins.
func ReadCSV(r io.Reader, name string, dist distance.Func) (*Database, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var vecs [][]float64
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		v := make([]float64, len(parts))
		var sq float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("vecdata: line %d component %d: %w", line, i+1, err)
			}
			// A non-finite coordinate makes distances to its row NaN or
			// +Inf, which the workload labels and Selectivity (d <= t)
			// count differently.
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("vecdata: line %d component %d: non-finite value %q", line, i+1, p)
			}
			v[i] = f
			sq += f * f
		}
		// A finite row can still overflow: ‖a − b‖² ≤ 2‖a‖² + 2‖b‖²
		// reaches +Inf once squared norms pass MaxFloat64/4, and the
		// labels and Selectivity then disagree as for non-finite rows.
		// The bound keeps every pairwise squared distance, and the
		// cosine normalisation, finite.
		if sq > maxSquaredNorm {
			return nil, fmt.Errorf("vecdata: line %d: squared norm %g exceeds %g, distances would overflow", line, sq, maxSquaredNorm)
		}
		if len(vecs) > 0 && len(v) != len(vecs[0]) {
			return nil, fmt.Errorf("vecdata: line %d has %d components, expected %d", line, len(v), len(vecs[0]))
		}
		vecs = append(vecs, v)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("vecdata: read csv: %w", err)
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("vecdata: csv contains no vectors")
	}
	return NewDatabase(name, dist, vecs), nil
}

// ReadCSVFile reads a CSV vector file from disk.
func ReadCSVFile(path string, dist distance.Func) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, strings.TrimSuffix(path, ".csv"), dist)
}

// WriteCSV writes the database in the format ReadCSV accepts.
func WriteCSV(w io.Writer, db *Database) error {
	bw := bufio.NewWriter(w)
	for _, v := range db.Vecs {
		for i, x := range v {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(x, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// openForWrite creates the file at path for writing (extracted so tests
// can exercise the file round trip without duplicating os boilerplate).
func openForWrite(path string) (*os.File, error) { return os.Create(path) }
