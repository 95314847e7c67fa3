package decimal_test

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"

	"selnet/internal/decimal"
	"selnet/internal/distance"
	"selnet/internal/vecdata"
)

// clientBody is a batch estimate body shaped like selbench's batch_scan
// requests: 32 jittered fasttext-like vectors of 64 dims, each at its 8
// ascending thresholds, written by json.Marshal.
func clientBody(tb testing.TB, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := vecdata.SyntheticFasttext(rng, 2000, 64, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, 32, 8)
	req := struct {
		Model   string      `json:"model"`
		Queries [][]float64 `json:"queries"`
		Ts      []float64   `json:"ts"`
	}{Model: "part"}
	for i := 0; i < len(wl.Queries); i += 8 {
		x := make([]float64, db.Dim)
		for j, b := range wl.Queries[i].X {
			x[j] = b + rng.NormFloat64()*1e-3
		}
		for _, q := range wl.Queries[i : i+8] {
			req.Queries = append(req.Queries, x)
			req.Ts = append(req.Ts, q.T)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// numbers returns the JSON numbers in body, a body without digits in
// its strings.
func numbers(body []byte) [][]byte {
	var out [][]byte
	for i := 0; i < len(body); {
		_, n, _ := decimal.Parse(body[i:])
		if n == 0 {
			i++
			continue
		}
		out = append(out, body[i:i+n])
		i += n
	}
	return out
}

// TestFastPathCoversClientBodies counts the numbers of a client body
// that Clinger and Eisel–Lemire leave to strconv: none.
func TestFastPathCoversClientBodies(t *testing.T) {
	nums := numbers(clientBody(t, 1))
	if want := 32*8*64 + 32*8; len(nums) != want {
		t.Fatalf("body holds %d numbers, want %d", len(nums), want)
	}
	fallbacks := 0
	for _, b := range nums {
		if _, _, ok := decimal.ParseFast(b); !ok {
			fallbacks++
		}
	}
	if fallbacks != 0 {
		t.Errorf("%d of %d numbers fall back to strconv.ParseFloat, want 0", fallbacks, len(nums))
	}
}

// BenchmarkParseClientBody parses each number of a client body, with
// Parse and with strconv.ParseFloat for comparison; ns/op is per body.
func BenchmarkParseClientBody(b *testing.B) {
	nums := numbers(clientBody(b, 1))
	b.Run("decimal", func(b *testing.B) {
		for b.Loop() {
			for _, s := range nums {
				decimal.Parse(s)
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for b.Loop() {
			for _, s := range nums {
				strconv.ParseFloat(string(s), 64)
			}
		}
	})
}
