package vecdata

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"selnet/internal/distance"
)

// The sort-based generators below are the definition the selection-based
// ones must reproduce bit for bit: every query's distances sorted in
// full, thresholds read off the sorted profile, labels by binary search.

func oracleCountWithin(sorted []float64, t float64) float64 {
	return float64(sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1))))
}

func oracleGeometric(rng *rand.Rand, db *Database, numQueries, w int) *Workload {
	if numQueries > db.Size() {
		numQueries = db.Size()
	}
	maxSel := float64(db.Size()) / 100
	if maxSel < 2 {
		maxSel = 2
	}
	ratio := math.Pow(maxSel, 1/float64(w-1))
	queryIdx := rng.Perm(db.Size())[:numQueries]
	var wl Workload
	for _, qi := range queryIdx {
		x := db.Vecs[qi]
		dists := db.DistancesTo(x)
		sort.Float64s(dists)
		sel := 1.0
		for j := 0; j < w; j++ {
			k := int(math.Round(sel))
			if k < 1 {
				k = 1
			}
			if k > len(dists) {
				k = len(dists)
			}
			t := dists[k-1]
			wl.Queries = append(wl.Queries, Query{X: x, T: t, Y: oracleCountWithin(dists, t)})
			if t > wl.TMax {
				wl.TMax = t
			}
			sel *= ratio
		}
	}
	wl.TMax *= 1.05
	return &wl
}

func oracleBackground(rng *rand.Rand, db *Database, numQueries int, fractions []float64, tMax float64,
	gen func(rng *rand.Rand) []float64) []Query {
	var out []Query
	for i := 0; i < numQueries; i++ {
		x := gen(rng)
		dists := db.DistancesTo(x)
		sort.Float64s(dists)
		for _, f := range fractions {
			t := tMax * f
			out = append(out, Query{X: x, T: t, Y: oracleCountWithin(dists, t)})
		}
	}
	return out
}

func oracleBeta(rng *rand.Rand, db *Database, numQueries, perQuery int, alpha, beta, tScale float64) *Workload {
	if numQueries > db.Size() {
		numQueries = db.Size()
	}
	queryIdx := rng.Perm(db.Size())[:numQueries]
	var wl Workload
	for _, qi := range queryIdx {
		x := db.Vecs[qi]
		dists := db.DistancesTo(x)
		sort.Float64s(dists)
		for j := 0; j < perQuery; j++ {
			t := SampleBeta(rng, alpha, beta) * tScale
			wl.Queries = append(wl.Queries, Query{X: x, T: t, Y: oracleCountWithin(dists, t)})
			if t > wl.TMax {
				wl.TMax = t
			}
		}
	}
	wl.TMax *= 1.05
	return &wl
}

// exactnessDBs builds the databases the generators are checked on: small
// and large |D| (the parallel row split starts at 256 rows), one row
// (fewer rows than the largest rank asked for), dims 0 to 64, 1 200 rows
// (ranks up to 12) that tie at the selected distances, and in-memory rows whose coordinates are
// NaN, ±Inf or 1e200, which make NaN and +Inf distances.
func exactnessDBs(dist distance.Func) map[string]*Database {
	rng := rand.New(rand.NewSource(41))
	normal := func(n, dim int) [][]float64 {
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for j := range vecs[i] {
				vecs[i][j] = rng.NormFloat64()
			}
		}
		return vecs
	}
	// Three copies of each distinct row: every rank past the first three
	// falls in a run of three equal distances.
	var tied [][]float64
	for _, v := range normal(400, 3) {
		tied = append(tied, v, append([]float64(nil), v...), append([]float64(nil), v...))
	}
	rng.Shuffle(len(tied), func(i, j int) { tied[i], tied[j] = tied[j], tied[i] })
	special := normal(300, 7)
	for i := 0; i < len(special); i += 9 {
		special[i][rng.Intn(7)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i/9%3]
	}
	huge := normal(270, 7)
	for i := 0; i < len(huge); i += 5 {
		huge[i][rng.Intn(7)] = []float64{1e200, -1e200}[i/5%2]
	}
	out := map[string]*Database{}
	for name, vecs := range map[string][][]float64{
		"n50-d1":   normal(50, 1),
		"n1-d7":    normal(1, 7),
		"n20-d0":   normal(20, 0),
		"n300-d7":  normal(300, 7),
		"n260-d64": normal(260, 64),
		"ties-d3":  tied,
		mixedNaNs:  special,
		"1e200-d7": huge,
	} {
		out[name] = NewDatabase(name, dist, vecs)
	}
	return out
}

// sameBits reports whether a and b have the same bits, or, with anyNaN,
// are both NaN. Where NaN distances carry different payloads (a NaN
// coordinate's own, and Inf−Inf's), which of them a sort puts first is
// not defined by the values, so neither is a NaN threshold's payload.
// Data read from CSV has finite coordinates, and its only NaN distances
// (cosine, from Inf/Inf norms) share one payload.
func sameBits(a, b float64, anyNaN bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (anyNaN && math.IsNaN(a) && math.IsNaN(b))
}

// mixedNaNs names the database whose rows hold NaN and ±Inf coordinates.
const mixedNaNs = "nan-inf-d7"

func compareQueries(t *testing.T, what string, got, want []Query, anyNaN bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.X) != len(w.X) {
			t.Fatalf("%s: query %d dim %d, oracle %d", what, i, len(g.X), len(w.X))
		}
		for j := range w.X {
			if math.Float64bits(g.X[j]) != math.Float64bits(w.X[j]) {
				t.Fatalf("%s: query %d X[%d] = %v, oracle %v", what, i, j, g.X[j], w.X[j])
			}
		}
		if !sameBits(g.T, w.T, anyNaN) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("%s: query %d (T, Y) = (%v, %v), oracle (%v, %v)", what, i, g.T, g.Y, w.T, w.Y)
		}
	}
}

func compareWorkloads(t *testing.T, what string, got, want *Workload, anyNaN bool) {
	t.Helper()
	compareQueries(t, what, got.Queries, want.Queries, anyNaN)
	if math.Float64bits(got.TMax) != math.Float64bits(want.TMax) {
		t.Fatalf("%s: TMax = %v, oracle %v", what, got.TMax, want.TMax)
	}
}

func TestWorkloadGeneratorsMatchSortOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
			for name, db := range exactnessDBs(dist) {
				for _, nq := range []int{1, 3, 4, 5, 129} {
					for _, w := range []int{1, 4, 7} {
						what := fmt.Sprintf("geometric procs=%d %s %s q=%d w=%d", procs, dist, name, nq, w)
						compareWorkloads(t, what,
							GeometricWorkload(rand.New(rand.NewSource(int64(nq))), db, nq, w),
							oracleGeometric(rand.New(rand.NewSource(int64(nq))), db, nq, w), name == mixedNaNs)
					}
					what := fmt.Sprintf("beta procs=%d %s %s q=%d", procs, dist, name, nq)
					compareWorkloads(t, what,
						BetaThresholdWorkload(rand.New(rand.NewSource(int64(nq))), db, nq, 5, 3, 2.5, 2),
						oracleBeta(rand.New(rand.NewSource(int64(nq))), db, nq, 5, 3, 2.5, 2), false)

					// Background queries are free vectors, so they also
					// carry the special values; thresholds include 0, a
					// NaN (0·Inf) and +Inf.
					gen := func(rng *rand.Rand) []float64 {
						x := make([]float64, db.Dim)
						for j := range x {
							x[j] = rng.NormFloat64() * 2
							if rng.Intn(10) == 0 {
								x[j] = []float64{math.NaN(), math.Inf(1), 1e200}[rng.Intn(3)]
							}
						}
						return x
					}
					for _, tMax := range []float64{1.5, math.Inf(1)} {
						fractions := []float64{0, 0.25, 0.5, 1, 2}
						what := fmt.Sprintf("background procs=%d %s %s q=%d tMax=%v", procs, dist, name, nq, tMax)
						compareQueries(t, what,
							BackgroundWorkload(rand.New(rand.NewSource(int64(nq))), db, nq, fractions, tMax, gen),
							oracleBackground(rand.New(rand.NewSource(int64(nq))), db, nq, fractions, tMax, gen), false)
					}
				}
			}
		}
	}
}

// smallest must return the sorted profile's prefix for every k, on
// inputs that stress the heap: sorted, reversed, constant, few
// distinct values, and NaN/±Inf mixed in.
func TestSmallestMatchesSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	inputs := map[string][]float64{"empty": {}}
	for _, n := range []int{1, 2, 3, 17, 300} {
		asc, desc, flat, few, mixed := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range asc {
			asc[i], desc[i], flat[i] = float64(i), float64(n-i), 3
			few[i] = float64(rng.Intn(3))
			mixed[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				mixed[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}[rng.Intn(4)]
			}
		}
		for kind, v := range map[string][]float64{"asc": asc, "desc": desc, "flat": flat, "few": few, "mixed": mixed} {
			inputs[fmt.Sprintf("%s-%d", kind, n)] = v
		}
	}
	for name, in := range inputs {
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		before := append([]float64(nil), in...)
		buf := make([]float64, 0, len(in))
		for k := 0; k <= len(in); k++ {
			got := smallest(in, buf, k)
			for i := range got {
				if !sameBits(got[i], sorted[i], false) {
					t.Fatalf("%s k=%d: prefix[%d] = %v, sorted %v", name, k, i, got[i], sorted[i])
				}
			}
			if len(got) != k {
				t.Fatalf("%s k=%d: prefix length %d", name, k, len(got))
			}
		}
		for i := range in {
			if !sameBits(in[i], before[i], false) {
				t.Fatalf("%s: smallest modified its input at %d", name, i)
			}
		}
	}
}
