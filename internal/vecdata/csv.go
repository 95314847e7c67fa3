package vecdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"selnet/internal/decimal"
	"selnet/internal/distance"
)

// maxSquaredNorm is the largest squared norm ReadCSV accepts for a row.
const maxSquaredNorm = math.MaxFloat64 / 8

// ReadCSV parses a vector dataset from r: one vector per line,
// comma-separated finite float64 components, all lines the same width,
// each line's squared norm at most MaxFloat64/8.
// Blank lines and lines starting with '#' are skipped. This lets the estimators
// run on real embedding dumps (e.g. fasttext .vec files converted to CSV)
// instead of the synthetic stand-ins. A component in the JSON number
// grammar, as WriteCSV writes it, is parsed in one pass by
// decimal.Parse; any other (+1, .5, Inf, a typo) goes to
// strconv.ParseFloat, which decides it and words its errors. Both give
// the same bits.
func ReadCSV(r io.Reader, name string, dist distance.Func) (*Database, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var vecs [][]float64
	line := 0
	for scanner.Scan() {
		line++
		text := bytes.TrimSpace(scanner.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		v := make([]float64, 0, bytes.Count(text, []byte(","))+1)
		var sq float64
		for more := true; more; {
			var p []byte
			p, text, more = bytes.Cut(text, []byte(","))
			field := bytes.TrimSpace(p)
			f, n, ok := decimal.Parse(field)
			if !ok || n != len(field) {
				var err error
				if f, err = strconv.ParseFloat(string(field), 64); err != nil {
					return nil, fmt.Errorf("vecdata: line %d component %d: %w", line, len(v)+1, err)
				}
			}
			// A non-finite coordinate makes distances to its row NaN or
			// +Inf, which the workload labels and Selectivity (d <= t)
			// count differently.
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("vecdata: line %d component %d: non-finite value %q", line, len(v)+1, p)
			}
			v = append(v, f)
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
