//go:build amd64

package tensor

// SIMD micro-kernels for the packed GEMM: 4x8 and 1x8 register tiles in
// AVX2+FMA assembly (gemm_amd64.s), selected at init by CPUID, and an
// 8x8 AVX-512F tile that runs first where the CPU and OS support it.
// Every full-panel tile keeps one fused-multiply-add chain per output
// element in ascending k order. The FMA contraction (no intermediate rounding of
// a*b) differs from the Go fallback's separate multiply+add by at most
// one ulp per step — well inside the differential suite's 1e-12 — and is
// used consistently for every shape on a given machine, so the
// per-element determinism contract holds.
//
// gemmSIMD is a plain package variable (not const) so the differential
// tests can force the portable path on SIMD machines.
var gemmSIMD = hasAVX2FMA()

// gemmWide enables the 8x8 AVX-512F tile; it is never set without
// gemmSIMD. Like gemmSIMD it is a variable so the tests can run the 4x8
// path as the reference on AVX-512 machines.
var gemmWide = gemmSIMD && hasAVX512F()

// gemm4x8 computes the 4x8 register tile c[0:4][0:8] = a[0:4][0:k] *
// panel, where panel is a packed k x 8 B-panel (see PackedB). lda/ldc are
// row strides in elements. Overwrites c.
//
//go:noescape
func gemm4x8(k int, a *float64, lda int, b *float64, c *float64, ldc int)

// gemm1x8 is the single-row variant: c[0:8] = a[0:k] * panel.
//
//go:noescape
func gemm1x8(k int, a *float64, b *float64, c *float64)

// gemm8x8 computes the 8-row tile c[0:8][0:w] = a[0:8][0:k] * panel
// (k >= 1, 1 <= w <= 8) and applies the epilogue ep in registers with
// bias[0:w]. ep is EpNone, EpBias or EpBiasReLU as an int; bias is
// unused for EpNone. A full panel (w = 8) keeps the fused chain of the
// 4x8 tile; a tail panel (w < 8) rounds each product before adding it,
// as gemmPanelGo does, and only columns [0, w) are read or written.
//
//go:noescape
func gemm8x8(k int, a *float64, lda int, b *float64, c *float64, ldc int, bias *float64, ep int, w int)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv0() (lo, hi uint32)

func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		bitFMA     = 1 << 12
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if c1&bitFMA == 0 || c1&bitOSXSAVE == 0 || c1&bitAVX == 0 {
		return false
	}
	// OS must have enabled XMM+YMM state saving.
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const bitAVX2 = 1 << 5
	return b7&bitAVX2 != 0
}

// hasAVX512F reports AVX-512 Foundation (CPUID leaf 7 EBX bit 16) with
// the opmask and all 32 zmm registers saved by the OS (XCR0 bits 5-7),
// on top of the AVX2+FMA the narrow tiles need.
func hasAVX512F() bool {
	if !hasAVX2FMA() {
		return false
	}
	if lo, _ := xgetbv0(); lo&0xe0 != 0xe0 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const bitAVX512F = 1 << 16
	return b7&bitAVX512F != 0
}

// vecAddBiasRelu computes row[0:n] = max(row+bias, 0); n must be a
// positive multiple of 4.
//
//go:noescape
func vecAddBiasRelu(n int, row *float64, bias *float64)

// vecRelu computes dst[0:n] = max(src, 0); n must be a positive
// multiple of 4.
//
//go:noescape
func vecRelu(n int, dst *float64, src *float64)
