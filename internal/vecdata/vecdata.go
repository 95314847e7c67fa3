// Package vecdata provides the data substrate for the reproduction: the
// vector database abstraction, synthetic stand-ins for the paper's three
// embedding datasets (fasttext, face, YouTube), exact ground-truth
// selectivity computation, the paper's workload generators (geometric
// selectivity sequences following Mattig et al., and Beta(3, 2.5)
// thresholds from Sec. 7.9), query splits, and insert/delete update
// streams for the incremental-learning experiments.
package vecdata

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"selnet/internal/distance"
	"selnet/internal/tensor"
)

// Database is an in-memory collection of equal-dimension vectors under a
// fixed distance function.
type Database struct {
	Name string
	Dist distance.Func
	Dim  int
	Vecs [][]float64
}

// NewDatabase wraps vecs; all vectors must share the same dimension.
func NewDatabase(name string, dist distance.Func, vecs [][]float64) *Database {
	if len(vecs) == 0 {
		panic("vecdata: empty database")
	}
	d := len(vecs[0])
	for i, v := range vecs {
		if len(v) != d {
			panic(fmt.Sprintf("vecdata: vector %d has dim %d, want %d", i, len(v), d))
		}
	}
	return &Database{Name: name, Dist: dist, Dim: d, Vecs: vecs}
}

// Size returns the number of vectors.
func (db *Database) Size() int { return len(db.Vecs) }

// Selectivity returns the exact number of database vectors within distance
// t of x — the ground-truth value function f(x, t, D) of Definition 1.
func (db *Database) Selectivity(x []float64, t float64) float64 {
	var count int
	for _, o := range db.Vecs {
		if db.Dist.Distance(x, o) <= t {
			count++
		}
	}
	return float64(count)
}

// SimilaritySelectivity returns the exact number of database vectors with
// cosine similarity at least s to x — the similarity-function variant of
// Definition 1 (sim >= s is equivalent to cosdist <= 1-s). It panics on
// non-cosine databases, where "similarity" has no canonical meaning.
func (db *Database) SimilaritySelectivity(x []float64, s float64) float64 {
	if db.Dist != distance.Cosine {
		panic("vecdata: SimilaritySelectivity requires a cosine database")
	}
	return db.Selectivity(x, 1-s)
}

// DistancesTo returns the distances from x to every database vector.
func (db *Database) DistancesTo(x []float64) []float64 {
	out := make([]float64, len(db.Vecs))
	parallelFor(len(db.Vecs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = db.Dist.Distance(x, db.Vecs[i])
		}
	})
	return out
}

// Insert appends vectors to the database.
func (db *Database) Insert(vecs ...[]float64) {
	for _, v := range vecs {
		if len(v) != db.Dim {
			panic(fmt.Sprintf("vecdata: insert dim %d, want %d", len(v), db.Dim))
		}
	}
	db.Vecs = append(db.Vecs, vecs...)
}

// Delete removes the vectors at the given indices (duplicates ignored).
func (db *Database) Delete(indices ...int) {
	if len(indices) == 0 {
		return
	}
	drop := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(db.Vecs) {
			panic(fmt.Sprintf("vecdata: delete index %d out of range %d", i, len(db.Vecs)))
		}
		drop[i] = true
	}
	kept := db.Vecs[:0]
	for i, v := range db.Vecs {
		if !drop[i] {
			kept = append(kept, v)
		}
	}
	db.Vecs = kept
}

// Clone returns a deep copy of the database.
func (db *Database) Clone() *Database {
	vecs := make([][]float64, len(db.Vecs))
	for i, v := range db.Vecs {
		vecs[i] = append([]float64(nil), v...)
	}
	return &Database{Name: db.Name, Dist: db.Dist, Dim: db.Dim, Vecs: vecs}
}

// parallelFor splits [0, n) into GOMAXPROCS chunks. On a single-core box it
// degenerates to a plain loop with no goroutine overhead.
func parallelFor(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < 256 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ----------------------------------------------------------------------------
// Queries and workloads

// Query is one labelled training/evaluation example.
type Query struct {
	X []float64 // query vector
	T float64   // distance threshold
	Y float64   // exact selectivity f(X, T, D)
}

// Workload is a labelled query set plus the t_max the estimators must
// support.
type Workload struct {
	Queries []Query
	TMax    float64
}

// Matrices converts the workload to (X, t, y) dense matrices for batch
// model evaluation: X is n x dim, t and y are n x 1.
func Matrices(queries []Query) (x, t, y *tensor.Dense) {
	if len(queries) == 0 {
		return tensor.New(0, 0), tensor.New(0, 1), tensor.New(0, 1)
	}
	d := len(queries[0].X)
	x = tensor.New(len(queries), d)
	t = tensor.New(len(queries), 1)
	y = tensor.New(len(queries), 1)
	for i, q := range queries {
		copy(x.Row(i), q.X)
		t.Set(i, 0, q.T)
		y.Set(i, 0, q.Y)
	}
	return x, t, y
}

// GeometricWorkload generates the paper's default workload (Appendix B.1):
// numQueries query vectors are drawn from the database; for each, w
// selectivity values form a geometric sequence in [1, |D|/100] and are
// converted to thresholds via the query's sorted distance profile. Labels
// are exact.
func GeometricWorkload(rng *rand.Rand, db *Database, numQueries, w int) *Workload {
	maxSel := float64(db.Size()) / 100
	if maxSel < 2 {
		maxSel = 2
	}
	ratio := math.Pow(maxSel, 1/float64(w-1))
	ks := make([]int, max(w, 0))
	kmax := 0
	sel := 1.0
	for j := range ks {
		k := int(math.Round(sel))
		if k < 1 {
			k = 1
		}
		if k > db.Size() {
			k = db.Size()
		}
		ks[j] = k
		kmax = max(kmax, k)
		sel *= ratio
	}
	xs := db.sampleQueries(rng, numQueries)
	var wl Workload
	buf := make([]float64, 0, kmax)
	db.scanDistances(xs, func(i int, dists []float64) {
		nearest := smallest(dists, buf, kmax)
		ts := make([]float64, len(ks))
		for j, k := range ks {
			ts[j] = nearest[k-1] // k-th smallest distance: exactly >= k objects within t
		}
		for j, y := range within(dists, ts) {
			wl.Queries = append(wl.Queries, Query{X: xs[i], T: ts[j], Y: y})
			if ts[j] > wl.TMax {
				wl.TMax = ts[j]
			}
		}
	})
	// Small headroom so estimators can extrapolate slightly beyond the
	// largest training threshold.
	wl.TMax *= 1.05
	return &wl
}

// BackgroundWorkload augments training with out-of-distribution queries:
// numQueries vectors produced by gen (e.g. uniform noise) each labelled at
// the given fractions of tMax. Applications that probe sparse regions —
// density estimation, outlier detection — need the training distribution
// to cover them, since database-sampled queries rarely do.
func BackgroundWorkload(rng *rand.Rand, db *Database, numQueries int, fractions []float64, tMax float64,
	gen func(rng *rand.Rand) []float64) []Query {
	xs := make([][]float64, numQueries)
	for i := range xs {
		xs[i] = gen(rng)
	}
	ts := make([]float64, len(fractions))
	for j, f := range fractions {
		ts[j] = tMax * f
	}
	var out []Query
	db.scanDistances(xs, func(i int, dists []float64) {
		for j, y := range within(dists, ts) {
			out = append(out, Query{X: xs[i], T: ts[j], Y: y})
		}
	})
	return out
}

// BetaThresholdWorkload generates the Sec. 7.9 workload: queries are drawn
// from the database, and thresholds are sampled from Beta(alpha, beta)
// scaled by tScale. Labels are exact.
func BetaThresholdWorkload(rng *rand.Rand, db *Database, numQueries, perQuery int, alpha, beta, tScale float64) *Workload {
	xs := db.sampleQueries(rng, numQueries)
	var wl Workload
	// rng draws stay in query order (the sample, then each query's
	// thresholds), so a seed gives the same workload whatever the
	// blocking of the distance scan.
	db.scanDistances(xs, func(i int, dists []float64) {
		ts := make([]float64, max(perQuery, 0))
		for j := range ts {
			ts[j] = SampleBeta(rng, alpha, beta) * tScale
		}
		for j, y := range within(dists, ts) {
			wl.Queries = append(wl.Queries, Query{X: xs[i], T: ts[j], Y: y})
			if ts[j] > wl.TMax {
				wl.TMax = ts[j]
			}
		}
	})
	wl.TMax *= 1.05
	return &wl
}

// sampleQueries draws min(n, |D|) distinct database rows as query vectors.
func (db *Database) sampleQueries(rng *rand.Rand, n int) [][]float64 {
	idx := rng.Perm(db.Size())[:min(n, db.Size())]
	xs := make([][]float64, len(idx))
	for i, r := range idx {
		xs[i] = db.Vecs[r]
	}
	return xs
}

// scanDistances calls fn(i, dists) for every query xs[i] in order, with
// dists[r] = db.Dist.Distance(xs[i], db.Vecs[r]); dists is only valid
// until fn returns. On a Euclidean database four queries share one pass over the
// rows through distance.SquaredL2x4, which is bit-identical to L2 per
// pair; the leftover queries, and every query on other distances, take
// Dist.Distance per pair, still reading each row once per block.
func (db *Database) scanDistances(xs [][]float64, fn func(i int, dists []float64)) {
	const block = 4
	var bufs [block][]float64
	for j := range min(block, len(xs)) {
		bufs[j] = make([]float64, len(db.Vecs))
	}
	for lo := 0; lo < len(xs); lo += block {
		q := xs[lo:min(lo+block, len(xs))]
		if len(q) == block && db.Dist == distance.Euclidean {
			parallelFor(len(db.Vecs), func(a, b int) {
				for r := a; r < b; r++ {
					s0, s1, s2, s3 := distance.SquaredL2x4(q[0], q[1], q[2], q[3], db.Vecs[r])
					bufs[0][r], bufs[1][r] = math.Sqrt(s0), math.Sqrt(s1)
					bufs[2][r], bufs[3][r] = math.Sqrt(s2), math.Sqrt(s3)
				}
			})
		} else {
			parallelFor(len(db.Vecs), func(a, b int) {
				for r := a; r < b; r++ {
					for j, x := range q {
						bufs[j][r] = db.Dist.Distance(x, db.Vecs[r])
					}
				}
			})
		}
		for j := range q {
			fn(lo+j, bufs[j])
		}
	}
}

// smallest returns the k smallest of dists in the order sort.Float64s
// gives them (NaN first), so its [k-1] is the sorted profile's [k-1]. It
// keeps them in a max-heap in buf (cap >= k) over one pass — past the
// first k rows a row costs one compare against the heap's top unless it
// displaces it — then sorts the k of them. dists is left as it is.
func smallest(dists, buf []float64, k int) []float64 {
	h := buf[:0]
	for _, d := range dists {
		switch {
		case len(h) < k:
			h = append(h, d)
			for i := len(h) - 1; i > 0 && nanFirstLess(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case k > 0 && nanFirstLess(d, h[0]):
			h[0] = d
			for i := 0; ; {
				c := 2*i + 1
				if c >= k {
					break
				}
				if c+1 < k && nanFirstLess(h[c], h[c+1]) {
					c++
				}
				if !nanFirstLess(h[i], h[c]) {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
	}
	sort.Float64s(h)
	return h
}

// nanFirstLess is sort.Float64s's order: NaN before every number.
func nanFirstLess(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// within returns, for each threshold ts[j], the number of distances <= it,
// counted exactly as a binary search for Nextafter(ts[j], +Inf) in the
// sort.Float64s-sorted distances counts them: the values not >= that
// bound, which takes in NaN distances (sorted first) and, for a NaN
// threshold, every distance. One pass serves all thresholds; a distance
// at or past every bound costs one compare.
func within(dists, ts []float64) []float64 {
	bounds := make([]float64, len(ts))
	top := math.Inf(-1)
	for j, t := range ts {
		bounds[j] = math.Nextafter(t, math.Inf(1))
		top = max(top, bounds[j]) // a NaN bound makes top NaN: nothing is passed over
	}
	counts := make([]float64, len(ts))
	for _, d := range dists {
		if d >= top {
			continue
		}
		for j, b := range bounds {
			if !(d >= b) {
				counts[j]++
			}
		}
	}
	return counts
}

// Split divides the workload 80:10:10 into train/validation/test *by
// query vector* (Appendix B.1): all thresholds of one query land in the
// same split, so test queries are never seen in training.
func (wl *Workload) Split(rng *rand.Rand) (train, valid, test []Query) {
	// Group queries by their vector identity (first element address is not
	// stable across copies, so group by value key).
	type group struct {
		key     string
		queries []Query
	}
	byKey := map[string]*group{}
	var order []*group
	for _, q := range wl.Queries {
		k := vecKey(q.X)
		g, ok := byKey[k]
		if !ok {
			g = &group{key: k}
			byKey[k] = g
			order = append(order, g)
		}
		g.queries = append(g.queries, q)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	nTrain := len(order) * 8 / 10
	nValid := len(order) / 10
	for i, g := range order {
		switch {
		case i < nTrain:
			train = append(train, g.queries...)
		case i < nTrain+nValid:
			valid = append(valid, g.queries...)
		default:
			test = append(test, g.queries...)
		}
	}
	return train, valid, test
}

func vecKey(v []float64) string {
	// Hash-free key: the first few coordinates at full precision identify a
	// query vector with overwhelming probability in our synthetic data.
	n := len(v)
	if n > 4 {
		n = 4
	}
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("%x|", math.Float64bits(v[i]))
	}
	return s
}

// Relabel recomputes the exact selectivity of every query against db,
// used after database updates (Sec. 5.4).
func Relabel(queries []Query, db *Database) {
	parallelFor(len(queries), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			queries[i].Y = db.Selectivity(queries[i].X, queries[i].T)
		}
	})
}

// ----------------------------------------------------------------------------
// Beta / Gamma sampling (stdlib math/rand has no beta distribution)

// SampleGamma draws from Gamma(shape, 1) using Marsaglia–Tsang, valid for
// any shape > 0.
func SampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		panic("vecdata: gamma shape must be positive")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		return SampleGamma(rng, shape+1) * math.Pow(rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleBeta draws from Beta(alpha, beta) via two gamma variates.
func SampleBeta(rng *rand.Rand, alpha, beta float64) float64 {
	a := SampleGamma(rng, alpha)
	b := SampleGamma(rng, beta)
	return a / (a + b)
}

// ----------------------------------------------------------------------------
// Update streams (Sec. 7.6)

// UpdateOp is one insertion or deletion batch in an update stream.
type UpdateOp struct {
	Insert [][]float64 // vectors to insert (nil for deletions)
	Delete int         // number of random vectors to delete (0 for insertions)
}

// UpdateStream generates numOps operations, each inserting or deleting
// batchSize records with equal probability, matching the Sec. 7.6 setup
// (100 operations of 5 records each). Inserted vectors are drawn by gen.
func UpdateStream(rng *rand.Rand, numOps, batchSize int, gen func(rng *rand.Rand) []float64) []UpdateOp {
	ops := make([]UpdateOp, numOps)
	for i := range ops {
		if rng.Intn(2) == 0 {
			vecs := make([][]float64, batchSize)
			for j := range vecs {
				vecs[j] = gen(rng)
			}
			ops[i] = UpdateOp{Insert: vecs}
		} else {
			ops[i] = UpdateOp{Delete: batchSize}
		}
	}
	return ops
}

// Apply executes the operation against db, deleting uniformly random rows
// for deletion ops.
func (op UpdateOp) Apply(rng *rand.Rand, db *Database) {
	if len(op.Insert) > 0 {
		db.Insert(op.Insert...)
		return
	}
	n := op.Delete
	if n > db.Size()-1 {
		n = db.Size() - 1
	}
	idx := rng.Perm(db.Size())[:n]
	db.Delete(idx...)
}
