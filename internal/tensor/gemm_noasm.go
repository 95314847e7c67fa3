//go:build !amd64

package tensor

// Non-amd64 builds run the portable blocked Go kernels; the SIMD entry
// points below exist only to satisfy references and are never called.
var gemmSIMD, gemmWide = false, false

func gemm4x8(k int, a *float64, lda int, b *float64, c *float64, ldc int) {
	panic("tensor: gemm4x8 without SIMD support")
}

func gemm1x8(k int, a *float64, b *float64, c *float64) {
	panic("tensor: gemm1x8 without SIMD support")
}

func gemm8x8(k int, a *float64, lda int, b *float64, c *float64, ldc int, bias *float64, ep int, w int) {
	panic("tensor: gemm8x8 without SIMD support")
}

func vecAddBiasRelu(n int, row *float64, bias *float64) {
	panic("tensor: vecAddBiasRelu without SIMD support")
}

func vecRelu(n int, dst *float64, src *float64) {
	panic("tensor: vecRelu without SIMD support")
}
