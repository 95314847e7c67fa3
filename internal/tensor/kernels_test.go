package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Differential suite for the blocked kernel layer: every optimized path
// (packed/blocked Go, SIMD, fused epilogues) is checked against
// matMulRefInto — the reference triple loop that tensor_noopt pins — to
// within 1e-12 relative error, across odd shapes, empty dimensions, and
// sizes that are not multiples of the register tile (gemmMR x gemmNR).

// gemmShapes is the [m, k, n] grid. It deliberately crosses the tile
// boundaries: n % gemmNR != 0 exercises the scalar tail panel,
// m % gemmMR != 0 the 1-row kernel, zero dims the degenerate paths, and
// {64, 48, 352} / {1, 48, 352} are SelNet's real layer shapes. The
// k=48, n=52 row sweep walks m across and between register tiles with a
// tail panel in play.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 3, 2}, {2, 3, 1}, {1, 5, 8}, {5, 1, 8}, {1, 8, 5},
	{3, 5, 7}, {4, 8, 8}, {7, 3, 21}, {9, 9, 16}, {12, 12, 12},
	{33, 17, 9}, {31, 7, 15}, {65, 48, 352}, {64, 48, 352}, {1, 48, 352},
	{100, 10, 10}, {8, 64, 64},
	{1, 48, 52}, {3, 48, 52}, {7, 48, 52}, {8, 48, 52}, {9, 48, 52}, {15, 48, 52},
	{16, 48, 52}, {31, 48, 52}, {64, 48, 52}, {65, 48, 52}, {100, 48, 52},
	{0, 4, 4}, {8, 0, 8}, {4, 4, 0}, {0, 0, 0},
}

func randDense(seed int64, r, c int) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func shapeSeed(m, k, n int) int64 { return int64(m)*1_000_003 + int64(k)*1009 + int64(n) }

// closeEnough is the differential tolerance: 1e-12 relative. The SIMD
// kernels contract each multiply-add with FMA, which differs from the
// two-rounding Go chain by at most one ulp per step — far inside this.
func closeEnough(ref, got float64) bool {
	if ref == got {
		return true
	}
	return math.Abs(ref-got) <= 1e-12*(1+math.Abs(ref))
}

func assertClose(t *testing.T, tag string, ref, got *Dense) {
	t.Helper()
	if ref.rows != got.rows || ref.cols != got.cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, ref.rows, ref.cols, got.rows, got.cols)
	}
	for i := range ref.data {
		if !closeEnough(ref.data[i], got.data[i]) {
			t.Fatalf("%s: elem [%d,%d]: ref %v got %v (diff %g)",
				tag, i/max(ref.cols, 1), i%max(ref.cols, 1), ref.data[i], got.data[i], ref.data[i]-got.data[i])
		}
	}
}

func assertExact(t *testing.T, tag string, want, got *Dense) {
	t.Helper()
	for i := range want.data {
		if want.data[i] != got.data[i] {
			t.Fatalf("%s: elem %d: want %v got %v (must be bitwise identical)", tag, i, want.data[i], got.data[i])
		}
	}
}

// withSIMD runs f with the SIMD micro-kernels forced on or off, so the
// blocked-Go fallback is differential-tested even on AVX2 machines. Off
// turns the AVX-512 tile off too; on leaves it as detected.
func withSIMD(t *testing.T, on bool, f func(t *testing.T)) {
	t.Helper()
	old, oldWide := gemmSIMD, gemmWide
	if on && !old {
		t.Skip("SIMD kernels unavailable on this CPU")
	}
	gemmSIMD, gemmWide = on, on && oldWide
	defer func() { gemmSIMD, gemmWide = old, oldWide }()
	f(t)
}

// TestGemmPackedMatchesReference is the core differential test: the
// packed blocked GEMM (SIMD and portable Go variants) against the
// reference triple loop over the whole shape grid.
func TestGemmPackedMatchesReference(t *testing.T) {
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			withSIMD(t, simd, func(t *testing.T) {
				for _, s := range gemmShapes {
					m, k, n := s[0], s[1], s[2]
					a := randDense(shapeSeed(m, k, n), m, k)
					b := randDense(shapeSeed(n, k, m)+1, k, n)
					ref := New(m, n)
					matMulRefInto(ref, a, b)

					pb := PackB(b)
					got := New(m, n)
					got.Fill(math.NaN()) // the kernel must overwrite every element
					GemmPacked(got, a, pb, nil, EpNone)
					assertClose(t, fmt.Sprintf("GemmPacked %dx%dx%d", m, k, n), ref, got)

					// MatMulInto dispatches through the same kernels (packing
					// per call); it must agree with the pre-packed path exactly.
					got2 := New(m, n)
					MatMulInto(got2, a, b)
					if optimizedKernels {
						assertExact(t, fmt.Sprintf("MatMulInto vs GemmPacked %dx%dx%d", m, k, n), got, got2)
					} else {
						assertClose(t, fmt.Sprintf("MatMulInto %dx%dx%d", m, k, n), ref, got2)
					}
				}
			})
		})
	}
}

// TestGemmPackedDeterministicAcrossBatch pins the per-element determinism
// contract compiled plans rely on: row i of an m-row product is bitwise
// identical to the same row computed in a 1-row product (plans execute at
// class capacity, the tape path at the exact request size, and
// selnet's TestPlanMatchesTapePath asserts ==).
func TestGemmPackedDeterministicAcrossBatch(t *testing.T) {
	const k, n = 17, 21
	b := randDense(7, k, n)
	pb := PackB(b)
	for _, m := range []int{1, 2, 3, 4, 5, 8, 33, 64} {
		a := randDense(int64(m), m, k)
		full := New(m, n)
		GemmPacked(full, a, pb, nil, EpNone)
		row := New(1, n)
		for i := 0; i < m; i++ {
			ar := FromSlice(1, k, append([]float64(nil), a.Row(i)...))
			GemmPacked(row, ar, pb, nil, EpNone)
			for j := 0; j < n; j++ {
				if full.At(i, j) != row.At(0, j) {
					t.Fatalf("m=%d row %d col %d: batch %v vs single-row %v", m, i, j, full.At(i, j), row.At(0, j))
				}
			}
		}
	}
}

// TestGemmParallelConcurrentCallers runs many goroutines through
// GemmPacked in parallel against one shared PackedB, as concurrent plan
// executions do — the race detector's target in CI — and checks every
// result against a single-goroutine run.
func TestGemmParallelConcurrentCallers(t *testing.T) {
	const k, n = 32, 24
	b := randDense(31, k, n)
	pb := PackB(b)

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		m := 17 + c*9
		a := randDense(int64(500+c), m, k)
		want := New(m, n)
		GemmPacked(want, a, pb, nil, EpNone)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got := New(m, n)
			for iter := 0; iter < 50; iter++ {
				GemmPacked(got, a, pb, nil, EpNone)
				for i := range want.data {
					if want.data[i] != got.data[i] {
						errs <- fmt.Errorf("caller %d iter %d elem %d: want %v got %v", c, iter, i, want.data[i], got.data[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGemmParallelZeroAllocs pins GemmPacked's steady-state allocation
// count at zero on a 64-row fused bias+relu layer. Skipped under the
// race detector, which instruments allocations.
func TestGemmParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const m, k, n = 64, 48, 52
	a := randDense(41, m, k)
	b := randDense(42, k, n)
	bias := randDense(43, 1, n)
	pb := PackB(b)
	out := New(m, n)
	if allocs := testing.AllocsPerRun(100, func() {
		GemmPacked(out, a, pb, bias, EpBiasReLU)
	}); allocs != 0 {
		t.Fatalf("GemmPacked: %v allocs/op, want 0", allocs)
	}
}

// refEpilogue applies ep the unfused way: AddRowVectorInto followed by
// the activation exactly as autodiff's closures compute it.
func refEpilogue(out, bias *Dense, ep Epilogue) {
	if ep == EpNone {
		return
	}
	AddRowVectorInto(out, out, bias)
	switch ep {
	case EpBiasReLU:
		ApplyInto(out, out, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	case EpBiasSigmoid:
		ApplyInto(out, out, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	case EpBiasTanh:
		ApplyInto(out, out, math.Tanh)
	case EpBiasSoftmax:
		// Same order of operations as autodiff's softmaxInto: row max,
		// exp(x-mx) with an ascending sum, then divide.
		for i := 0; i < out.rows; i++ {
			row := out.Row(i)
			mx := math.Inf(-1)
			for _, v := range row {
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for j, v := range row {
				row[j] = math.Exp(v - mx)
				sum += row[j]
			}
			for j := range row {
				row[j] /= sum
			}
		}
	}
}

// TestGemmPackedEpilogues checks every fused epilogue two ways: bitwise
// against "bare GemmPacked + unfused ops" (fusion must be invisible), and
// within 1e-12 against the full reference chain.
func TestGemmPackedEpilogues(t *testing.T) {
	eps := []Epilogue{EpBias, EpBiasReLU, EpBiasSigmoid, EpBiasTanh, EpBiasSoftmax}
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			withSIMD(t, simd, func(t *testing.T) {
				for _, s := range gemmShapes {
					m, k, n := s[0], s[1], s[2]
					if m == 0 || n == 0 {
						continue // softmax over an empty row is undefined
					}
					a := randDense(shapeSeed(m, k, n)+3, m, k)
					b := randDense(shapeSeed(m, k, n)+4, k, n)
					bias := randDense(shapeSeed(m, k, n)+5, 1, n)
					pb := PackB(b)

					for _, ep := range eps {
						fused := New(m, n)
						GemmPacked(fused, a, pb, bias, ep)

						unfused := New(m, n)
						GemmPacked(unfused, a, pb, nil, EpNone)
						refEpilogue(unfused, bias, ep)
						assertExact(t, fmt.Sprintf("%s fused vs unfused %dx%dx%d", ep.Name(), m, k, n), unfused, fused)

						ref := New(m, n)
						matMulRefInto(ref, a, b)
						refEpilogue(ref, bias, ep)
						assertClose(t, fmt.Sprintf("%s vs reference %dx%dx%d", ep.Name(), m, k, n), ref, fused)
					}
				}
			})
		})
	}
}

// TestEpilogueNames pins the timing-name suffixes infer interns.
func TestEpilogueNames(t *testing.T) {
	want := map[Epilogue]string{
		EpNone: "", EpBias: "bias", EpBiasReLU: "bias+relu",
		EpBiasSigmoid: "bias+sigmoid", EpBiasTanh: "bias+tanh", EpBiasSoftmax: "bias+softmax",
	}
	for ep, name := range want {
		if got := ep.Name(); got != name {
			t.Fatalf("Epilogue(%d).Name() = %q, want %q", ep, got, name)
		}
	}
}

// TestReluIntoMatchesApply differential-tests the vectorized ReLU against
// ApplyInto with the branchy closure, including special values; they must
// agree bitwise (the VMAXPD kernel maps NaN and -0 to +0, same as the
// scalar form's literal zero).
func TestReluIntoMatchesApply(t *testing.T) {
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			withSIMD(t, simd, func(t *testing.T) {
				for _, shape := range [][2]int{{1, 1}, {3, 7}, {4, 8}, {5, 13}, {64, 48}, {1, 0}} {
					src := randDense(int64(shape[0]*100+shape[1]), shape[0], shape[1])
					want := New(shape[0], shape[1])
					ApplyInto(want, src, func(v float64) float64 {
						if v > 0 {
							return v
						}
						return 0
					})
					got := New(shape[0], shape[1])
					ReluInto(got, src)
					assertExact(t, fmt.Sprintf("relu %dx%d", shape[0], shape[1]), want, got)

					// In-place form (dst aliases src), as recorded plans use it.
					inPlace := src.Clone()
					ReluInto(inPlace, inPlace)
					assertExact(t, fmt.Sprintf("relu in-place %dx%d", shape[0], shape[1]), want, inPlace)
				}

				special := FromSlice(1, 8, []float64{
					math.NaN(), math.Copysign(0, -1), 0, -1, 2.5, math.Inf(1), math.Inf(-1), -math.SmallestNonzeroFloat64,
				})
				got := New(1, 8)
				ReluInto(got, special)
				want := []float64{0, 0, 0, 0, 2.5, math.Inf(1), 0, 0}
				for j, w := range want {
					v := got.At(0, j)
					if v != w || (v == 0 && math.Signbit(v)) {
						t.Fatalf("special[%d]: ReluInto(%v) = %v, want +%v", j, special.At(0, j), v, w)
					}
				}
			})
		})
	}
}

// TestPackBTailPadding checks the zero padding of the partial tail panel
// explicitly (packBPooled draws unzeroed pool memory, so the padding must
// be written, not assumed).
func TestPackBTailPadding(t *testing.T) {
	const k, n = 3, 13 // tail panel of width 5
	b := randDense(11, k, n)
	// Dirty a pooled slice, return it, and pack through the pool so the
	// panel storage starts full of garbage.
	sl := getPoolSlice((n + gemmNR - 1) / gemmNR * k * gemmNR)
	for i := range sl {
		sl[i] = math.NaN()
	}
	putPoolSlice(sl)
	pb := packBPooled(b)
	defer pb.Release()
	if pb.K() != k || pb.N() != n {
		t.Fatalf("packed dims %dx%d, want %dx%d", pb.K(), pb.N(), k, n)
	}
	panels := (n + gemmNR - 1) / gemmNR
	for p := 0; p < panels; p++ {
		j0 := p * gemmNR
		for kk := 0; kk < k; kk++ {
			for lane := 0; lane < gemmNR; lane++ {
				got := pb.data[p*k*gemmNR+kk*gemmNR+lane]
				want := 0.0
				if j0+lane < n {
					want = b.At(kk, j0+lane)
				}
				if got != want {
					t.Fatalf("panel %d row %d lane %d: got %v want %v", p, kk, lane, got, want)
				}
			}
		}
	}
}

// naiveMatMul computes a*b with the simplest possible loop (the oracle
// for the transpose and accumulate variants).
func naiveMatMul(a, b *Dense) *Dense {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func transpose(m *Dense) *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// TestMatMulVariantsEdgeShapes covers MatMulTransA, MatMulTransB and
// MatMulAddInto on the degenerate shapes the training path produces:
// single-row (1xN), single-column (Nx1), and empty dimensions.
func TestMatMulVariantsEdgeShapes(t *testing.T) {
	// [rows(a), cols(a), other] grids per variant, chosen so every edge
	// class appears: 1xN, Nx1, zero rows, zero cols.
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {5, 1, 3}, {3, 5, 1}, {1, 1, 7}, {7, 1, 1},
		{0, 3, 3}, {3, 0, 3}, {3, 3, 0}, {4, 8, 8}, {9, 2, 5},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randDense(shapeSeed(m, k, n)+10, m, k)
		b := randDense(shapeSeed(m, k, n)+11, k, n)

		// MatMulAddInto: out += a*b on a non-zero out.
		out := randDense(shapeSeed(m, k, n)+12, m, n)
		want := Add(out, naiveMatMul(a, b))
		MatMulAddInto(out, a, b)
		assertClose(t, fmt.Sprintf("MatMulAddInto %dx%dx%d", m, k, n), want, out)

		// MatMulTransA: aᵀ*b where a is k-by-m (shared leading dim k).
		at := randDense(shapeSeed(m, k, n)+13, k, m)
		wantTA := naiveMatMul(transpose(at), b)
		assertClose(t, fmt.Sprintf("MatMulTransA %dx%dx%d", m, k, n), wantTA, MatMulTransA(at, b))

		// MatMulTransB: a*bᵀ where b is n-by-k (shared trailing dim k).
		bt := randDense(shapeSeed(m, k, n)+14, n, k)
		wantTB := naiveMatMul(a, transpose(bt))
		assertClose(t, fmt.Sprintf("MatMulTransB %dx%dx%d", m, k, n), wantTB, MatMulTransB(a, bt))
	}
}

// TestGemmPackedPanics pins the kernel's shape contract.
func TestGemmPackedPanics(t *testing.T) {
	a := New(2, 3)
	pb := PackB(New(3, 4))
	expectPanic := func(tag string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", tag)
			}
		}()
		f()
	}
	expectPanic("bad out shape", func() { GemmPacked(New(2, 5), a, pb, nil, EpNone) })
	expectPanic("bad inner dim", func() { GemmPacked(New(2, 4), New(2, 9), pb, nil, EpNone) })
	expectPanic("missing bias", func() { GemmPacked(New(2, 4), a, pb, nil, EpBiasReLU) })
	expectPanic("bad bias shape", func() { GemmPacked(New(2, 4), a, pb, New(1, 3), EpBias) })
}
