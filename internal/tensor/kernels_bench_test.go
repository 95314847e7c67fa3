package tensor

import (
	"fmt"
	"testing"
)

// benchShapes is the BenchmarkMatMul sweep: powers of two from 8 to 512
// square, plus SelNet's real layer shapes (the encoder/head matmuls at
// batch 64 and batch 1).
var benchShapes = [][3]int{
	{8, 8, 8}, {16, 16, 16}, {32, 32, 32}, {64, 64, 64},
	{128, 128, 128}, {256, 256, 256}, {512, 512, 512},
	{64, 64, 48},  // SelNet encoder layer at batch 64
	{64, 48, 352}, // SelNet control-point head at batch 64 (dominant)
	{1, 48, 352},  // same head at batch 1
}

func benchName(m, k, n int) string { return fmt.Sprintf("%dx%dx%d", m, k, n) }

// BenchmarkMatMul measures the public dispatcher (pack per call), the
// path tape-based training and one-off products take.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		a := randDense(1, m, k)
		bm := randDense(2, k, n)
		out := New(m, n)
		b.Run(benchName(m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, a, bm)
			}
			reportGflops(b, m, k, n)
		})
	}
}

// BenchmarkMatMulPrepacked measures GemmPacked with B packed once
// outside the loop — the compiled-plan hot path, which packs weights at
// plan compile time.
func BenchmarkMatMulPrepacked(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		a := randDense(1, m, k)
		pb := PackB(randDense(2, k, n))
		out := New(m, n)
		b.Run(benchName(m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GemmPacked(out, a, pb, nil, EpNone)
			}
			reportGflops(b, m, k, n)
		})
	}
}

// BenchmarkMatMulFusedBiasRelu measures the fused layer kernel plans
// execute for hidden layers (matmul + bias + relu in one pass).
func BenchmarkMatMulFusedBiasRelu(b *testing.B) {
	for _, s := range [][3]int{{64, 64, 48}, {64, 48, 352}, {1, 48, 352}} {
		m, k, n := s[0], s[1], s[2]
		a := randDense(1, m, k)
		pb := PackB(randDense(2, k, n))
		bias := randDense(3, 1, n)
		out := New(m, n)
		b.Run(benchName(m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GemmPacked(out, a, pb, bias, EpBiasReLU)
			}
			reportGflops(b, m, k, n)
		})
	}
}

// BenchmarkMatMulReference pins the unoptimized triple loop for
// perspective (the kernel tensor_noopt falls back to).
func BenchmarkMatMulReference(b *testing.B) {
	for _, s := range [][3]int{{64, 64, 64}, {64, 48, 352}} {
		m, k, n := s[0], s[1], s[2]
		a := randDense(1, m, k)
		bm := randDense(2, k, n)
		out := New(m, n)
		b.Run(benchName(m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulRefInto(out, a, bm)
			}
			reportGflops(b, m, k, n)
		})
	}
}

func reportGflops(b *testing.B, m, k, n int) {
	b.Helper()
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}
