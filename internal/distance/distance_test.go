package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestL2Basic(t *testing.T) {
	if got := L2([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if got := SquaredL2([]float64{1, 1}, []float64{1, 1}); got != 0 {
		t.Fatalf("SquaredL2 self = %v", got)
	}
}

func TestL2DimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	L2([]float64{1}, []float64{1, 2})
}

func TestL2WithinDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	L2Within([]float64{1}, []float64{1, 2}, 1)
}

// L2Within must make exactly the decision L2(a, b) <= thr makes, early
// exit or not: at the computed distance and one ulp either side, at the
// degenerate thresholds that disarm the early exit, and at scales where
// thr*thr underflows or overflows.
func TestL2WithinMatchesL2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{0, 1, 2, 3, 8, 13, 64} {
		for _, scale := range []float64{1, 1e-160, 1e160} {
			for trial := 0; trial < 20; trial++ {
				a, b := randVec(rng, dim), randVec(rng, dim)
				for i := range a {
					a[i] *= scale
					b[i] *= scale
				}
				if trial == 0 && dim > 0 {
					b[dim-1] = math.NaN()
				}
				d := L2(a, b)
				for _, thr := range []float64{
					d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)),
					d / 2, d * 2, 0, math.Copysign(0, -1), -1, -d,
					math.NaN(), math.Inf(1), math.Inf(-1),
					1e-200, 0x1p-1030, 1e200, math.MaxFloat64,
				} {
					if got, want := L2Within(a, b, thr), d <= thr; got != want {
						t.Fatalf("dim %d scale %g: L2Within(thr=%g) = %v, L2 = %g says %v", dim, scale, thr, got, d, want)
					}
				}
			}
		}
	}
}

// SquaredL2x4 must return SquaredL2's bits for each of its four queries,
// including sums that overflow to +Inf or turn NaN.
func TestSquaredL2x4MatchesSquaredL2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200, 1e-160, 0}
	for _, dim := range []int{0, 1, 3, 7, 8, 13, 64} {
		for _, scale := range []float64{1, 1e-160, 1e160} {
			for trial := 0; trial < 20; trial++ {
				var q [4][]float64
				for j := range q {
					q[j] = randVec(rng, dim)
				}
				r := randVec(rng, dim)
				for _, v := range append(q[:], r) {
					for i := range v {
						v[i] *= scale
						if rng.Intn(16) == 0 {
							v[i] = specials[rng.Intn(len(specials))]
						}
					}
				}
				var got [4]float64
				got[0], got[1], got[2], got[3] = SquaredL2x4(q[0], q[1], q[2], q[3], r)
				for j := range q {
					if want := SquaredL2(q[j], r); math.Float64bits(got[j]) != math.Float64bits(want) {
						t.Fatalf("dim %d scale %g query %d: SquaredL2x4 = %v, SquaredL2 = %v", dim, scale, j, got[j], want)
					}
				}
			}
		}
	}
}

func TestSquaredL2x4DimensionMismatchPanics(t *testing.T) {
	ok, short := []float64{1, 2}, []float64{1}
	for bad := 0; bad < 5; bad++ {
		args := [5][]float64{ok, ok, ok, ok, ok}
		args[bad] = short
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("argument %d: expected panic", bad)
				}
			}()
			SquaredL2x4(args[0], args[1], args[2], args[3], args[4])
		}()
	}
}

func TestCosineBasic(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := CosineDistance(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("orthogonal cosine distance = %v, want 1", got)
	}
	if got := CosineDistance(a, a); math.Abs(got) > 1e-12 {
		t.Fatalf("self cosine distance = %v, want 0", got)
	}
	c := []float64{-2, 0}
	if got := CosineDistance(a, c); math.Abs(got-2) > 1e-12 {
		t.Fatalf("opposite cosine distance = %v, want 2", got)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := CosineDistance([]float64{0, 0}, []float64{1, 2}); got != 1 {
		t.Fatalf("zero-vector cosine distance = %v, want 1", got)
	}
}

func TestCosineScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(8)
		a := randVec(rng, d)
		b := randVec(rng, d)
		s := 0.1 + rng.Float64()*10
		sa := make([]float64, d)
		for i := range a {
			sa[i] = a[i] * s
		}
		return math.Abs(CosineDistance(a, b)-CosineDistance(sa, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestL2TriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(10)
		a, b, c := randVec(rng, d), randVec(rng, d), randVec(rng, d)
		return L2(a, c) <= L2(a, b)+L2(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float64{3, 4})
	if math.Abs(Norm(v)-1) > 1e-12 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero vector changed: %v", z)
	}
	// Normalize must not mutate its input.
	orig := []float64{3, 4}
	Normalize(orig)
	if orig[0] != 3 {
		t.Fatalf("Normalize mutated input")
	}
}

// On unit vectors, cosine distance and l2 distance are related by
// ||u-v||² = 2·cos_dist(u,v); the threshold conversions must agree with
// the actual distances.
func TestCosineL2EquivalenceOnUnitVectors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(8)
		u := Normalize(randVec(rng, d))
		v := Normalize(randVec(rng, d))
		cd := CosineDistance(u, v)
		l2 := L2(u, v)
		return math.Abs(CosineToL2Threshold(cd)-l2) < 1e-9 &&
			math.Abs(L2ToCosineThreshold(l2)-cd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdConversionMonotone(t *testing.T) {
	prev := -1.0
	for c := 0.0; c <= 2.0; c += 0.05 {
		l := CosineToL2Threshold(c)
		if l < prev {
			t.Fatalf("conversion not monotone at %v", c)
		}
		prev = l
	}
	if CosineToL2Threshold(-0.5) != 0 {
		t.Fatalf("negative threshold should clamp to 0")
	}
}

func TestFuncDispatchAndString(t *testing.T) {
	a, b := []float64{1, 0}, []float64{0, 1}
	if Euclidean.Distance(a, b) != L2(a, b) {
		t.Fatalf("Euclidean dispatch wrong")
	}
	if Cosine.Distance(a, b) != CosineDistance(a, b) {
		t.Fatalf("Cosine dispatch wrong")
	}
	if Euclidean.String() != "l2" || Cosine.String() != "cos" {
		t.Fatalf("String() wrong: %v %v", Euclidean, Cosine)
	}
	if !Euclidean.Metric() || Cosine.Metric() {
		t.Fatalf("Metric() wrong")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatalf("Dot wrong")
	}
	if Norm([]float64{3, 4}) != 5 {
		t.Fatalf("Norm wrong")
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
