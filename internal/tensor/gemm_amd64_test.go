//go:build amd64

package tensor

import (
	"math"
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
