// Package distance defines the distance functions used throughout the
// repository: Euclidean (l2) and cosine distance, the two settings the
// paper evaluates (Sec. 7.1). Cosine distance on unit vectors is a
// monotone transform of Euclidean distance, which the paper exploits to
// run metric-only methods (KDE, cover-tree partitioning) on cosine
// workloads; Convert implements that equivalence.
package distance

import (
	"fmt"
	"math"
)

// Func identifies a distance function.
type Func int

// Supported distance functions.
const (
	// Euclidean is the l2 distance.
	Euclidean Func = iota
	// Cosine is 1 - cos(u, v), in [0, 2].
	Cosine
)

// Parse resolves a distance function from its command-line spelling;
// both CLIs (selest, selestd) accept the same names through it.
func Parse(s string) (Func, error) {
	switch s {
	case "l2", "euclidean":
		return Euclidean, nil
	case "cos", "cosine":
		return Cosine, nil
	default:
		return 0, fmt.Errorf("unknown distance %q (use l2/euclidean or cos/cosine)", s)
	}
}

// String returns the conventional short name.
func (f Func) String() string {
	switch f {
	case Euclidean:
		return "l2"
	case Cosine:
		return "cos"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// Metric reports whether the function satisfies the triangle inequality
// as-is. Cosine distance does not in general, but on unit vectors it is a
// monotone transform of the metric Euclidean distance.
func (f Func) Metric() bool { return f == Euclidean }

// Distance computes f between equal-length vectors a and b.
func (f Func) Distance(a, b []float64) float64 {
	switch f {
	case Euclidean:
		return L2(a, b)
	case Cosine:
		return CosineDistance(a, b)
	default:
		panic(fmt.Sprintf("distance: unknown function %d", int(f)))
	}
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float64) float64 {
	return math.Sqrt(SquaredL2(a, b))
}

// SquaredL2 returns the squared Euclidean distance between a and b.
func SquaredL2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// L2Within reports L2(a, b) <= thr, the same decision bit for bit, but
// returns false as soon as a partial sum proves the distance exceeds
// thr. The sum is accumulated exactly as SquaredL2 does and checked
// every 8 coordinates against thr² padded by a relative 1e-9 — far more
// than the rounding of thr*thr and of the final square root, so an
// early false is never one the full computation would call true. The
// early exit is armed only when thr is finite and positive and thr*thr
// is a normal float; NaN, negative, overflowing and subnormal
// thresholds run the full sum.
func L2Within(a, b []float64, thr float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: dimension mismatch %d vs %d", len(a), len(b)))
	}
	bound := math.Inf(1)
	if sq := thr * thr; thr > 0 && sq >= 0x1p-1022 && sq <= math.MaxFloat64 {
		bound = sq * (1 + 1e-9)
	}
	var s float64
	// Unrolled by hand: a ranged inner loop over 8-element reslices runs
	// the full sum at half the speed of SquaredL2.
	for len(a) >= 8 {
		d := a[0] - b[0]
		s += d * d
		d = a[1] - b[1]
		s += d * d
		d = a[2] - b[2]
		s += d * d
		d = a[3] - b[3]
		s += d * d
		d = a[4] - b[4]
		s += d * d
		d = a[5] - b[5]
		s += d * d
		d = a[6] - b[6]
		s += d * d
		d = a[7] - b[7]
		s += d * d
		if s > bound {
			return false
		}
		a, b = a[8:], b[8:]
	}
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return math.Sqrt(s) <= thr
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineDistance returns 1 - cos(a, b). Zero vectors are treated as
// maximally distant (distance 1) to avoid NaN.
func CosineDistance(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	c := Dot(a, b) / (na * nb)
	// Guard against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return 1 - c
}

// Normalize returns v scaled to unit norm (a copy). The zero vector is
// returned unchanged.
func Normalize(v []float64) []float64 {
	out := append([]float64(nil), v...)
	n := Norm(v)
	if n == 0 {
		return out
	}
	for i := range out {
		out[i] /= n
	}
	return out
}

// CosineToL2Threshold converts a cosine-distance threshold t to the
// equivalent Euclidean threshold on unit vectors:
//
//	||u-v||² = 2 - 2·cos(u,v) = 2·t  =>  ||u-v|| = sqrt(2t).
//
// This is the conversion from Sec. 5.3 that lets the cover tree partition
// cosine workloads.
func CosineToL2Threshold(t float64) float64 {
	if t < 0 {
		t = 0
	}
	return math.Sqrt(2 * t)
}

// L2ToCosineThreshold is the inverse of CosineToL2Threshold.
func L2ToCosineThreshold(t float64) float64 {
	return t * t / 2
}
