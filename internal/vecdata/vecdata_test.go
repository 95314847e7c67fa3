package vecdata

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"selnet/internal/distance"
)

func smallDB(seed int64, n, dim int, dist distance.Func) *Database {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	return NewDatabase("test", dist, vecs)
}

func TestSelectivityMatchesNaive(t *testing.T) {
	db := smallDB(1, 200, 5, distance.Euclidean)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		x := db.Vecs[rng.Intn(db.Size())]
		threshold := rng.Float64() * 4
		var want float64
		for _, o := range db.Vecs {
			if distance.L2(x, o) <= threshold {
				want++
			}
		}
		if got := db.Selectivity(x, threshold); got != want {
			t.Fatalf("Selectivity = %v, want %v", got, want)
		}
	}
}

func TestSelectivityMonotoneInT(t *testing.T) {
	db := smallDB(3, 100, 4, distance.Euclidean)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := db.Vecs[rng.Intn(db.Size())]
		t1 := rng.Float64() * 3
		t2 := t1 + rng.Float64()*2
		return db.Selectivity(x, t1) <= db.Selectivity(x, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistancesTo(t *testing.T) {
	db := smallDB(4, 300, 3, distance.Cosine)
	x := db.Vecs[0]
	dists := db.DistancesTo(x)
	if len(dists) != db.Size() {
		t.Fatalf("got %d distances", len(dists))
	}
	if dists[0] > 1e-12 {
		t.Fatalf("self distance = %v", dists[0])
	}
	for i, d := range dists {
		if want := distance.CosineDistance(x, db.Vecs[i]); math.Abs(d-want) > 1e-12 {
			t.Fatalf("distance %d = %v, want %v", i, d, want)
		}
	}
}

func TestInsertDelete(t *testing.T) {
	db := smallDB(5, 10, 3, distance.Euclidean)
	v := []float64{1, 2, 3}
	db.Insert(v)
	if db.Size() != 11 {
		t.Fatalf("size after insert = %d", db.Size())
	}
	db.Delete(0, 1)
	if db.Size() != 9 {
		t.Fatalf("size after delete = %d", db.Size())
	}
	db.Delete(0, 0) // duplicate indices remove one row
	if db.Size() != 8 {
		t.Fatalf("size after dup delete = %d", db.Size())
	}
}

func TestInsertDimMismatchPanics(t *testing.T) {
	db := smallDB(6, 5, 3, distance.Euclidean)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	db.Insert([]float64{1, 2})
}

func TestCloneIsDeep(t *testing.T) {
	db := smallDB(7, 5, 2, distance.Euclidean)
	c := db.Clone()
	c.Vecs[0][0] = 999
	if db.Vecs[0][0] == 999 {
		t.Fatalf("Clone shares vector storage")
	}
	c.Delete(0)
	if db.Size() != 5 {
		t.Fatalf("Clone shares slice")
	}
}

func TestGeometricWorkloadLabelsExact(t *testing.T) {
	db := smallDB(8, 400, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(9))
	wl := GeometricWorkload(rng, db, 10, 8)
	if len(wl.Queries) != 80 {
		t.Fatalf("queries = %d, want 80", len(wl.Queries))
	}
	for _, q := range wl.Queries {
		if got := db.Selectivity(q.X, q.T); got != q.Y {
			t.Fatalf("label %v != exact %v", q.Y, got)
		}
		if q.Y < 1 {
			t.Fatalf("selectivity below 1: %v", q.Y)
		}
		if q.T > wl.TMax {
			t.Fatalf("threshold %v exceeds TMax %v", q.T, wl.TMax)
		}
	}
}

func TestGeometricWorkloadSpansSelectivityRange(t *testing.T) {
	db := smallDB(10, 1000, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(11))
	wl := GeometricWorkload(rng, db, 5, 10)
	var minY, maxY = math.Inf(1), math.Inf(-1)
	for _, q := range wl.Queries {
		minY = math.Min(minY, q.Y)
		maxY = math.Max(maxY, q.Y)
	}
	if minY > 2 {
		t.Fatalf("min selectivity %v, want near 1", minY)
	}
	// Geometric sequence tops out near |D|/100 = 10.
	if maxY < 8 {
		t.Fatalf("max selectivity %v, want near 10", maxY)
	}
}

func TestBetaThresholdWorkload(t *testing.T) {
	db := smallDB(12, 300, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(13))
	wl := BetaThresholdWorkload(rng, db, 8, 5, 3, 2.5, 2.0)
	if len(wl.Queries) != 40 {
		t.Fatalf("queries = %d", len(wl.Queries))
	}
	for _, q := range wl.Queries {
		if q.T < 0 || q.T > 2.0 {
			t.Fatalf("threshold %v outside [0, 2]", q.T)
		}
		if got := db.Selectivity(q.X, q.T); got != q.Y {
			t.Fatalf("label %v != exact %v", q.Y, got)
		}
	}
}

func TestSplitProportionsAndDisjointness(t *testing.T) {
	db := smallDB(14, 300, 3, distance.Euclidean)
	rng := rand.New(rand.NewSource(15))
	wl := GeometricWorkload(rng, db, 20, 6)
	train, valid, test := wl.Split(rng)
	if len(train)+len(valid)+len(test) != len(wl.Queries) {
		t.Fatalf("split loses queries: %d+%d+%d != %d", len(train), len(valid), len(test), len(wl.Queries))
	}
	if len(train) != 16*6 || len(valid) != 2*6 || len(test) != 2*6 {
		t.Fatalf("split sizes %d/%d/%d", len(train), len(valid), len(test))
	}
	// No query vector appears in two splits.
	seen := map[string]string{}
	check := func(qs []Query, label string) {
		for _, q := range qs {
			k := vecKey(q.X)
			if prev, ok := seen[k]; ok && prev != label {
				t.Fatalf("query vector in both %s and %s", prev, label)
			}
			seen[k] = label
		}
	}
	check(train, "train")
	check(valid, "valid")
	check(test, "test")
}

func TestMatrices(t *testing.T) {
	qs := []Query{
		{X: []float64{1, 2}, T: 0.5, Y: 3},
		{X: []float64{4, 5}, T: 0.7, Y: 9},
	}
	x, tt, y := Matrices(qs)
	if x.Rows() != 2 || x.Cols() != 2 || tt.Rows() != 2 || y.Rows() != 2 {
		t.Fatalf("bad shapes")
	}
	if x.At(1, 0) != 4 || tt.At(0, 0) != 0.5 || y.At(1, 0) != 9 {
		t.Fatalf("bad values")
	}
}

func TestRelabel(t *testing.T) {
	db := smallDB(16, 100, 3, distance.Euclidean)
	rng := rand.New(rand.NewSource(17))
	wl := GeometricWorkload(rng, db, 5, 4)
	qs := append([]Query(nil), wl.Queries...)
	// Corrupt labels, then relabel against the same db.
	for i := range qs {
		qs[i].Y = -1
	}
	Relabel(qs, db)
	for i, q := range qs {
		if q.Y != wl.Queries[i].Y {
			t.Fatalf("relabel mismatch at %d", i)
		}
	}
}

func TestSampleGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 20000
	for _, shape := range []float64{0.5, 1, 3} {
		var sum float64
		for i := 0; i < n; i++ {
			v := SampleGamma(rng, shape)
			if v < 0 {
				t.Fatalf("negative gamma sample")
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Fatalf("gamma(%v) mean = %v", shape, mean)
		}
	}
}

func TestSampleBetaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 20000
	alpha, beta := 3.0, 2.5
	var sum float64
	for i := 0; i < n; i++ {
		v := SampleBeta(rng, alpha, beta)
		if v < 0 || v > 1 {
			t.Fatalf("beta sample %v outside [0,1]", v)
		}
		sum += v
	}
	want := alpha / (alpha + beta)
	if math.Abs(sum/n-want) > 0.02 {
		t.Fatalf("beta mean = %v, want %v", sum/n, want)
	}
}

func TestUpdateStreamAndApply(t *testing.T) {
	db := smallDB(20, 50, 3, distance.Euclidean)
	rng := rand.New(rand.NewSource(21))
	ops := UpdateStream(rng, 20, 5, func(r *rand.Rand) []float64 {
		return []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	})
	if len(ops) != 20 {
		t.Fatalf("ops = %d", len(ops))
	}
	var inserts, deletes int
	size := db.Size()
	for _, op := range ops {
		op.Apply(rng, db)
		if len(op.Insert) > 0 {
			inserts++
			size += len(op.Insert)
		} else {
			deletes++
			size -= op.Delete
		}
		if db.Size() != size {
			t.Fatalf("size drifted: %d vs %d", db.Size(), size)
		}
	}
	if inserts == 0 || deletes == 0 {
		t.Fatalf("stream should mix inserts (%d) and deletes (%d)", inserts, deletes)
	}
}

func TestSyntheticGeneratorsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ft := SyntheticFasttext(rng, 100, 16, distance.Cosine)
	if ft.Size() != 100 || ft.Dim != 16 || ft.Name != "fasttext-cos" {
		t.Fatalf("fasttext: %d %d %s", ft.Size(), ft.Dim, ft.Name)
	}
	face := SyntheticFace(rng, 80, 12)
	if face.Size() != 80 || face.Dist != distance.Cosine {
		t.Fatalf("face bad")
	}
	for _, v := range face.Vecs {
		if math.Abs(distance.Norm(v)-1) > 1e-9 {
			t.Fatalf("face vector not normalized: %v", distance.Norm(v))
		}
	}
	yt := SyntheticYouTube(rng, 60, 64)
	if yt.Size() != 60 || yt.Dim != 64 {
		t.Fatalf("youtube bad")
	}
	for _, v := range yt.Vecs {
		if math.Abs(distance.Norm(v)-1) > 1e-9 {
			t.Fatalf("youtube vector not normalized")
		}
	}
}

func TestSyntheticSelectivityVariance(t *testing.T) {
	// The mixture must produce selectivities spanning orders of magnitude,
	// the property the paper's loss design targets.
	rng := rand.New(rand.NewSource(23))
	db := SyntheticFasttext(rng, 2000, 8, distance.Euclidean)
	wl := GeometricWorkload(rng, db, 20, 10)
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, q := range wl.Queries {
		lo = math.Min(lo, q.Y)
		hi = math.Max(hi, q.Y)
	}
	if hi/lo < 10 {
		t.Fatalf("selectivity range too narrow: [%v, %v]", lo, hi)
	}
}

func TestSimilaritySelectivity(t *testing.T) {
	db := smallDB(25, 200, 4, distance.Cosine)
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 10; trial++ {
		x := db.Vecs[rng.Intn(db.Size())]
		s := rng.Float64()
		if got, want := db.SimilaritySelectivity(x, s), db.Selectivity(x, 1-s); got != want {
			t.Fatalf("SimilaritySelectivity(%v) = %v, want %v", s, got, want)
		}
	}
	// Higher similarity threshold admits fewer matches.
	x := db.Vecs[0]
	if db.SimilaritySelectivity(x, 0.9) > db.SimilaritySelectivity(x, 0.1) {
		t.Fatalf("similarity selectivity must be non-increasing in s")
	}
}

func TestSimilaritySelectivityPanicsOnEuclidean(t *testing.T) {
	db := smallDB(27, 10, 3, distance.Euclidean)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	db.SimilaritySelectivity(db.Vecs[0], 0.5)
}

func TestBackgroundWorkload(t *testing.T) {
	db := smallDB(28, 300, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(29))
	fractions := []float64{0.25, 0.5, 1}
	qs := BackgroundWorkload(rng, db, 7, fractions, 2.0, func(r *rand.Rand) []float64 {
		return []float64{r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3}
	})
	if len(qs) != 7*3 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if got := db.Selectivity(q.X, q.T); got != q.Y {
			t.Fatalf("background label %v != exact %v", q.Y, got)
		}
		if q.T > 2.0 {
			t.Fatalf("threshold %v exceeds tMax", q.T)
		}
	}
}

func TestSampleLike(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	db := SyntheticFace(rng, 50, 8)
	v := SampleLike(rng, db, 0.1)
	if len(v) != 8 {
		t.Fatalf("dim %d", len(v))
	}
	if math.Abs(distance.Norm(v)-1) > 1e-9 {
		t.Fatalf("SampleLike on cosine dataset must stay normalized")
	}
}

// BenchmarkGeometricWorkload labels the δ_U workload selestd builds from
// -data at start-up, at the selbench fixture's shape: 10k × 64 rows, 128
// query vectors, 4 thresholds each.
func BenchmarkGeometricWorkload(b *testing.B) {
	db := smallDB(44, 10000, 64, distance.Euclidean)
	for b.Loop() {
		GeometricWorkload(rand.New(rand.NewSource(1)), db, 128, 4)
	}
}
