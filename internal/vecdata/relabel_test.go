package vecdata

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"selnet/internal/distance"
)

// relabelOracle is the per-query loop Relabel replaced: one full
// Selectivity scan for every query.
func relabelOracle(queries []Query, db *Database) {
	for i := range queries {
		queries[i].Y = db.Selectivity(queries[i].X, queries[i].T)
	}
}

// runsOf counts the runs of adjacent queries whose X are bit-identical,
// which is the number of passes Relabel makes over the database.
func runsOf(queries []Query) int {
	n := 0
	for i := range queries {
		if i == 0 || !sameVec(queries[i].X, queries[i-1].X) {
			n++
		}
	}
	return n
}

// checkRelabel relabels a copy of qs with Relabel and another with the
// oracle, and requires Float64bits-equal labels and one pass over db per
// run of equal vectors.
func checkRelabel(t *testing.T, what string, qs []Query, db *Database) {
	t.Helper()
	got := append([]Query(nil), qs...)
	want := append([]Query(nil), qs...)
	for i := range got {
		got[i].Y = -1
	}
	evals := Relabel(got, db)
	relabelOracle(want, db)
	for i := range got {
		if math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("%s: query %d (T=%v): Relabel %v, per-query Selectivity %v",
				what, i, got[i].T, got[i].Y, want[i].Y)
		}
	}
	if want := runsOf(qs) * db.Size(); evals != want {
		t.Fatalf("%s: %d distance evaluations, want %d", what, evals, want)
	}
}

func TestRelabelMatchesSelectivity(t *testing.T) {
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		db := smallDB(31, 300, 6, dist)
		rng := rand.New(rand.NewSource(32))
		wl := GeometricWorkload(rng, db, 40, 5)
		name := dist.String()

		train, valid, test := wl.Split(rng)
		checkRelabel(t, name+" train", train, db)
		checkRelabel(t, name+" valid", valid, db)
		checkRelabel(t, name+" test", test, db)

		shuffled := append([]Query(nil), wl.Queries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		checkRelabel(t, name+" shuffled", shuffled, db)

		// Threshold-major order: no two adjacent queries share a vector,
		// so every query costs its own pass.
		const w = 5
		var strided []Query
		for j := range w {
			for i := j; i < len(wl.Queries); i += w {
				strided = append(strided, wl.Queries[i])
			}
		}
		if runsOf(strided) != len(strided) {
			t.Fatalf("%s: strided order has adjacent repeats", name)
		}
		checkRelabel(t, name+" strided", strided, db)

		// Equal bits in distinct slices are one run; +0 and -0 differ in
		// bits and are not.
		x := db.Vecs[7]
		cp := append([]float64(nil), x...)
		neg := append([]float64(nil), x...)
		neg[0] = math.Copysign(0, -1)
		pos := append([]float64(nil), x...)
		pos[0] = 0
		mixed := []Query{{X: x, T: 0.5}, {X: cp, T: 1}, {X: x, T: 2}, {X: pos, T: 1}, {X: neg, T: 1}}
		if runsOf(mixed) != 3 {
			t.Fatalf("%s: want 3 runs in the mixed slice", name)
		}
		checkRelabel(t, name+" distinct slices", mixed, db)

		// Non-finite, negative and zero thresholds; a vector that is its
		// own database row counts itself at t = 0.
		var specials []Query
		for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, math.Copysign(0, -1), 0.3} {
			specials = append(specials, Query{X: x, T: th})
		}
		checkRelabel(t, name+" special thresholds", specials, db)
		nanX := append([]float64(nil), x...)
		nanX[1] = math.NaN()
		checkRelabel(t, name+" NaN vector", []Query{{X: nanX, T: math.Inf(1)}, {X: nanX, T: 1}}, db)

		checkRelabel(t, name+" empty", nil, db)
		checkRelabel(t, name+" one query", wl.Queries[:1], db)
	}
}

// TestRelabelDistanceEvals pins the daemon's δ_U shape: selestd labels
// 128 vectors × 4 thresholds and cuts them 3:1 into train and valid, so
// relabelling both costs one pass per vector, 128·|D| evaluations (a
// per-query scan costs 512·|D|).
func TestRelabelDistanceEvals(t *testing.T) {
	db := smallDB(33, 500, 8, distance.Euclidean)
	wl := GeometricWorkload(rand.New(rand.NewSource(1)), db, 128, 4)
	cut := len(wl.Queries) * 3 / 4
	train, valid := wl.Queries[:cut], wl.Queries[cut:]
	if got, want := Relabel(train, db)+Relabel(valid, db), 128*db.Size(); got != want {
		t.Fatalf("relabel made %d distance evaluations, want %d", got, want)
	}
}

// FuzzRelabel checks Relabel against the per-query Selectivity loop bit
// for bit. spec is read in 9-byte records: the first byte picks one of a
// few query vectors (some of them bit-equal copies in distinct slices),
// and the next eight give the threshold, as raw float64 bits when the
// first byte's 0x40 bit is set and as a small fixed-point value
// otherwise. The database has integer coordinates, so distances tie with
// thresholds often.
func FuzzRelabel(f *testing.F) {
	f.Add(int64(1), false, uint8(20), []byte{0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 1, 24, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(2), true, uint8(9), []byte{3, 4, 0, 0, 0, 0, 0, 0, 0, 0x44, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x45, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(int64(3), false, uint8(0), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0xf0, 0, 0, 0, 0, 0, 0, 0, 2, 32, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(4), true, uint8(40), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, cosine bool, rows uint8, spec []byte) {
		if len(spec) > 9*64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		const dim = 3
		vecs := make([][]float64, int(rows)%40+1)
		for i := range vecs {
			v := make([]float64, dim)
			for j := range v {
				v[j] = float64(rng.Intn(5) - 2)
			}
			vecs[i] = v
		}
		dist := distance.Euclidean
		if cosine {
			dist = distance.Cosine
		}
		db := NewDatabase("fuzz", dist, vecs)
		a := vecs[0]
		pool := [][]float64{a, append([]float64(nil), a...), vecs[len(vecs)-1], {0.5, -1, 2}, {0, 0, 0}, {math.Copysign(0, -1), 0, 0}}
		var qs []Query
		for ; len(spec) >= 9; spec = spec[9:] {
			x := pool[int(spec[0]&0x3f)%len(pool)]
			bits := binary.LittleEndian.Uint64(spec[1:9])
			th := math.Float64frombits(bits)
			if spec[0]&0x40 == 0 {
				th = float64(int16(bits)) / 16
			}
			qs = append(qs, Query{X: x, T: th})
		}
		checkRelabel(t, "fuzz", qs, db)
	})
}
