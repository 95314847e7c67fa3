//go:build amd64

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestGemmPackedDispatchesSIMD pins the default dispatch: where CPUID
// reports AVX2+FMA, GemmPacked must run the assembly tiles, not the
// portable Go kernels. SIMDEnabled is the dispatch accessor. The tiles'
// bit signature proves they ran: they keep one fused multiply-add chain
// per element, while the Go kernels round each product, and with
// a0*b0 = -1 and a1*b1 = 1 + 2^-29 + 2^-60 the fused sum keeps the 2^-60
// that the rounded product drops. Five rows cover the 4x8 and the 1x8
// tile.
func TestGemmPackedDispatchesSIMD(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU lacks AVX2+FMA: the Go kernels are the default")
	}
	if !SIMDEnabled() {
		t.Fatal("AVX2+FMA present but the SIMD tiles are not the default dispatch")
	}
	const m, n = 5, 8
	u := 1 + 0x1p-30
	a, b := New(m, 2), New(2, n)
	for i := 0; i < m; i++ {
		a.Set(i, 0, -1)
		a.Set(i, 1, u)
	}
	for j := 0; j < n; j++ {
		b.Set(0, j, 1)
		b.Set(1, j, u)
	}
	fused := math.FMA(u, u, -1)
	if rounded := u*u - 1; fused == rounded {
		t.Fatalf("inputs do not separate fused %v from rounded %v", fused, rounded)
	}
	out := New(m, n)
	GemmPacked(out, a, PackB(b), nil, EpNone)
	for i, v := range out.Data() {
		if v != fused {
			t.Fatalf("elem [%d,%d] = %v, want the fused-chain %v of the assembly tile", i/n, i%n, v, fused)
		}
	}
}

// TestGemmPackedDispatchesAVX512 pins the wide dispatch: where the CPU
// and OS support AVX-512F, GemmPacked must run the 8x8 tile. Thirteen
// rows take the 8-, 4- and 1-row tiles in turn. The fused-chain
// signature of TestGemmPackedDispatchesSIMD must show in the full panel,
// and the rounded-product value in the three tail columns, which every
// tile computes with one rounding per product as gemmPanelGo does.
func TestGemmPackedDispatchesAVX512(t *testing.T) {
	if !hasAVX512F() {
		t.Skip("CPU or OS lacks AVX-512F: the 4x8 tile is the default")
	}
	if !gemmWide {
		t.Fatal("AVX-512F present but the 8x8 tile is not the default dispatch")
	}
	const m, n = 13, 11
	u := 1 + 0x1p-30
	a, b := New(m, 2), New(2, n)
	for i := 0; i < m; i++ {
		a.Set(i, 0, -1)
		a.Set(i, 1, u)
	}
	for j := 0; j < n; j++ {
		b.Set(0, j, 1)
		b.Set(1, j, u)
	}
	fused, rounded := math.FMA(u, u, -1), u*u-1
	if fused == rounded {
		t.Fatalf("inputs do not separate fused %v from rounded %v", fused, rounded)
	}
	out := New(m, n)
	GemmPacked(out, a, PackB(b), nil, EpNone)
	for i, v := range out.Data() {
		want := fused
		if i%n >= gemmNR {
			want = rounded
		}
		if v != want {
			t.Fatalf("elem [%d,%d] = %v, want %v", i/n, i%n, v, want)
		}
	}
}

// TestWideTileMatchesNarrowTile checks the AVX-512 tiles against the 4x8
// tile and the Go tail panel (gemmWide off) for Float64bits equality,
// over every row count from 8 to 72, inner sizes that cross the loop
// count's edge cases, every tail width, and every epilogue. A holds ±0,
// NaN and ±Inf in every third row and B holds -0 and one +Inf, so NaN
// reaches the ReLU and signed zeros reach the adds. B holds no NaN: a
// product of two NaNs carries a different payload per tile (kernels.go).
func TestWideTileMatchesNarrowTile(t *testing.T) {
	if !gemmWide {
		t.Skip("the AVX-512 tile is not in use on this machine")
	}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	eps := []Epilogue{EpNone, EpBias, EpBiasReLU, EpBiasSigmoid, EpBiasTanh, EpBiasSoftmax}
	rng := rand.New(rand.NewSource(49))
	for _, k := range []int{1, 5, 48, 72, 100} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 18, 19, 20, 21, 22, 23} {
			b := randDense(int64(k*100+n), k, n)
			for i := 0; i < 3; i++ {
				b.Set(rng.Intn(k), rng.Intn(n), math.Copysign(0, -1))
			}
			b.Set(rng.Intn(k), rng.Intn(n), math.Inf(1))
			pb := PackB(b)
			bias := randDense(int64(k*100+n)+1, 1, n)
			for m := 8; m <= 72; m++ {
				a := randDense(int64(m*10_000+k*100+n), m, k)
				for r := 0; r < m; r += 3 {
					a.Set(r, rng.Intn(k), specials[rng.Intn(len(specials))])
				}
				for _, ep := range eps {
					var bv *Dense
					if ep != EpNone {
						bv = bias
					}
					got, want := New(m, n), New(m, n)
					GemmPacked(got, a, pb, bv, ep)
					gemmWide = false
					GemmPacked(want, a, pb, bv, ep)
					gemmWide = true
					for i, w := range want.data {
						if math.Float64bits(got.data[i]) != math.Float64bits(w) {
							t.Fatalf("m=%d k=%d n=%d ep=%q elem [%d,%d]: wide %v (%#x), narrow %v (%#x)",
								m, k, n, ep.Name(), i/n, i%n, got.data[i], math.Float64bits(got.data[i]), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}
