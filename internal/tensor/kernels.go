package tensor

import (
	"fmt"
	"math"
)

// This file is the blocked compute-kernel layer behind MatMulInto and the
// fused plan kernels (internal/infer). The design invariant that makes the
// whole layer drop-in safe is *per-element determinism*: every kernel —
// reference, blocked Go, SIMD — computes each output element out[i][j] as
// one multiply-add chain over k in ascending order. The value of
// out[i][j] therefore depends only on (row i of A, column j of B, K);
// never on the batch size or the tile a row landed in. Compiled plans
// rely on this: a plan executes at its batch-class capacity while the
// tape path runs at the exact request size, and the two must agree
// bitwise (selnet's TestPlanMatchesTapePath asserts ==, not approx).
//
// Layout: B is packed once into column panels of gemmNR columns, each
// panel stored k-major (panel row kk holds B[kk][j0:j0+gemmNR]) so the
// micro-kernel streams both A rows and the panel contiguously. Panels are
// zero-padded on the right, which keeps the SIMD kernel branch-free; the
// padded lanes compute harmless zeros that are never stored. For the one
// partial tail panel a scalar path is used at every call site, so tail
// columns too are computed identically everywhere.
//
// Register tiles: 4x8 and 1x8 (AVX2+FMA on amd64, blocked Go elsewhere).
// Where the CPU and OS support AVX-512F, 8-row blocks run through an 8x8
// tile first, for MatMulInto and GemmPacked alike: one zmm per row of a
// panel, so the packing is unchanged, the same fused chain per element,
// a masked loop that rounds like the scalar path for the tail panel, and
// the bias and bias+ReLU epilogues applied to the accumulators before
// the store. The tiles agree
// bit for bit on every input but one: where A and B both hold a NaN at
// the same k, the result is NaN on every tile, but whose payload it
// carries depends on the tile (x86 NaN propagation follows operand
// order, and the broadcast operand of an FMA must be the last source).
//
// The tensor_noopt build tag (kernels_noopt.go) pins MatMulInto to the
// reference triple loop and disables plan-level fusion, as an escape
// hatch and as the oracle for the differential tests.

const (
	gemmMR     = 4 // rows per register tile
	gemmWideMR = 8 // rows per AVX-512 register tile
	gemmNR     = 8 // columns per packed panel (and per register tile)
)

// Epilogue selects the fused element-wise tail applied to each output row
// block while it is still cache-hot. EpNone stores the bare product.
type Epilogue uint8

const (
	EpNone        Epilogue = iota
	EpBias                 // out += bias (broadcast row)
	EpBiasReLU             // out = max(out+bias, 0)
	EpBiasSigmoid          // out = 1/(1+exp(-(out+bias)))
	EpBiasTanh             // out = tanh(out+bias)
	EpBiasSoftmax          // out = softmax(out+bias) per row
)

// epilogueName is indexed by Epilogue; used by infer to intern fused
// kernel timing names.
var epilogueNames = [...]string{"", "bias", "bias+relu", "bias+sigmoid", "bias+tanh", "bias+softmax"}

// Name returns a short suffix identifying the epilogue ("" for EpNone).
func (e Epilogue) Name() string { return epilogueNames[e] }

// PackedB is matrix B repacked into zero-padded column panels for the
// blocked GEMM. It snapshots B's values at pack time: a PackedB built
// from model weights goes stale if those weights are mutated afterwards
// (compiled plans handle this by dropping plans after training).
type PackedB struct {
	k, n   int
	panels int       // ceil(n / gemmNR)
	data   []float64 // panels*k*gemmNR, panel p at [p*k*gemmNR, (p+1)*k*gemmNR)
}

// PackB packs b into the panel layout. The result does not alias b.
func PackB(b *Dense) *PackedB {
	pb := packBInto(b, make([]float64, (b.cols+gemmNR-1)/gemmNR*b.rows*gemmNR))
	return &pb
}

// packBPooled is PackB drawing the panel storage from the buffer pool
// (unzeroed; packBInto writes every slot); Release returns it.
func packBPooled(b *Dense) PackedB {
	return packBInto(b, getPoolSlice((b.cols+gemmNR-1)/gemmNR*b.rows*gemmNR))
}

func packBInto(b *Dense, store []float64) PackedB {
	k, n := b.rows, b.cols
	panels := (n + gemmNR - 1) / gemmNR
	for p := 0; p < panels; p++ {
		j0 := p * gemmNR
		w := n - j0
		if w > gemmNR {
			w = gemmNR
		}
		panel := store[p*k*gemmNR : (p+1)*k*gemmNR]
		for kk := 0; kk < k; kk++ {
			dst := panel[kk*gemmNR : kk*gemmNR+gemmNR]
			copy(dst, b.data[kk*n+j0:kk*n+j0+w])
			for t := w; t < gemmNR; t++ {
				dst[t] = 0
			}
		}
	}
	return PackedB{k: k, n: n, panels: panels, data: store}
}

// K returns the inner (row) dimension of the packed matrix.
func (pb *PackedB) K() int { return pb.k }

// N returns the column dimension of the packed matrix.
func (pb *PackedB) N() int { return pb.n }

// Release returns pooled panel storage to the buffer pool. Safe on
// PackB-built values too (their storage is simply left to the GC when
// not bucket-sized). pb must not be used afterwards.
func (pb *PackedB) Release() {
	putPoolSlice(pb.data)
	pb.data = nil
}

// GemmPacked computes out = a * B followed by the fused epilogue, where
// pb packs B. out must be a.Rows() x pb.N() and must not alias a; bias
// must be 1 x pb.N() for bias-carrying epilogues and nil for EpNone.
// It runs on the calling goroutine.
func GemmPacked(out, a *Dense, pb *PackedB, bias *Dense, ep Epilogue) {
	if a.cols != pb.k || out.rows != a.rows || out.cols != pb.n {
		panic(fmt.Sprintf("tensor: GemmPacked out %dx%d = %dx%d * packed %dx%d",
			out.rows, out.cols, a.rows, a.cols, pb.k, pb.n))
	}
	if ep != EpNone && (bias == nil || bias.rows != 1 || bias.cols != pb.n) {
		panic(fmt.Sprintf("tensor: GemmPacked epilogue %q needs 1x%d bias", ep.Name(), pb.n))
	}
	gemmPacked(out, a, pb, bias, ep)
}

// gemmPacked computes every row of out: gemmWideMR-row blocks from row 0
// where the AVX-512 tile is available, then gemmMR-row register tiles,
// then the leftover rows one at a time, each block followed by its
// epilogue while it is still cache-hot.
func gemmPacked(out, a *Dense, pb *PackedB, bias *Dense, ep Epilogue) {
	m := a.rows
	if m == 0 || pb.n == 0 {
		return
	}
	i := 0
	if gemmWide && pb.k > 0 {
		for ; i+gemmWideMR <= m; i += gemmWideMR {
			gemmWideBlock(out, a, pb, bias, ep, i)
		}
	}
	for ; i+gemmMR <= m; i += gemmMR {
		gemmBlock(out, a, pb, i, gemmMR)
		epilogueRows(out, bias, ep, i, i+gemmMR)
	}
	for ; i < m; i++ {
		gemmBlock(out, a, pb, i, 1)
		epilogueRows(out, bias, ep, i, i+1)
	}
}

// gemmBlock computes rows [i, i+mr) of out (mr is gemmMR or 1) across all
// panels: full panels through the register-tiled kernel (SIMD when the
// CPU supports it, blocked Go otherwise), the partial tail panel through
// the scalar path.
func gemmBlock(out, a *Dense, pb *PackedB, i, mr int) {
	k, n := pb.k, pb.n
	lda, ldc := a.cols, out.cols
	fullPanels := n / gemmNR
	if gemmSIMD && k > 0 {
		if mr == gemmMR {
			for p := 0; p < fullPanels; p++ {
				gemm4x8(k, &a.data[i*lda], lda, &pb.data[p*k*gemmNR], &out.data[i*ldc+p*gemmNR], ldc)
			}
		} else {
			for p := 0; p < fullPanels; p++ {
				gemm1x8(k, &a.data[i*lda], &pb.data[p*k*gemmNR], &out.data[i*ldc+p*gemmNR])
			}
		}
	} else {
		for p := 0; p < fullPanels; p++ {
			gemmPanelGo(out, a, pb, i, mr, p, gemmNR)
		}
	}
	if tail := n - fullPanels*gemmNR; tail > 0 {
		gemmPanelGo(out, a, pb, i, mr, fullPanels, tail)
	}
	if k == 0 {
		for r := i; r < i+mr; r++ {
			row := out.data[r*ldc : r*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
	}
}

// gemmWideBlock computes rows [i, i+gemmWideMR) of out across all panels
// with the AVX-512 tile (pb.k > 0), then their epilogue: in registers
// for EpBias and EpBiasReLU, through epilogueRows for the others.
func gemmWideBlock(out, a *Dense, pb *PackedB, bias *Dense, ep Epilogue, i int) {
	k, n := pb.k, pb.n
	lda, ldc := a.cols, out.cols
	rep := EpNone // the epilogue the tile applies in registers
	if ep == EpBias || ep == EpBiasReLU {
		rep = ep
	}
	var bp *float64
	for p := 0; p < pb.panels; p++ {
		if rep != EpNone {
			bp = &bias.data[p*gemmNR]
		}
		w := min(n-p*gemmNR, gemmNR)
		gemm8x8(k, &a.data[i*lda], lda, &pb.data[p*k*gemmNR], &out.data[i*ldc+p*gemmNR], ldc, bp, int(rep), w)
	}
	if rep == EpNone {
		epilogueRows(out, bias, ep, i, i+gemmWideMR)
	}
}

// gemmPanelGo is the portable panel kernel: w columns of panel p for rows
// [i, i+mr). One ascending-k chain per element, same as the SIMD kernels.
func gemmPanelGo(out, a *Dense, pb *PackedB, i, mr, p, w int) {
	k := pb.k
	if k == 0 {
		return
	}
	lda, ldc := a.cols, out.cols
	panel := pb.data[p*k*gemmNR : (p+1)*k*gemmNR]
	j0 := p * gemmNR
	for r := i; r < i+mr; r++ {
		arow := a.data[r*lda : r*lda+k]
		orow := out.data[r*ldc+j0 : r*ldc+j0+w]
		for j := 0; j < w; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += arow[kk] * panel[kk*gemmNR+j]
			}
			orow[j] = s
		}
	}
}

// epilogueRows applies ep to rows [r0, r1) of out. The formulas must
// match the unfused ops exactly (AddRowVectorInto + ApplyInto with the
// autodiff activation closures, and autodiff's softmaxInto), so fusing is
// bit-invisible.
func epilogueRows(out, bias *Dense, ep Epilogue, r0, r1 int) {
	if ep == EpNone {
		return
	}
	n := out.cols
	bv := bias.data
	for i := r0; i < r1; i++ {
		row := out.data[i*n : (i+1)*n]
		switch ep {
		case EpBias:
			for j, b := range bv {
				row[j] += b
			}
		case EpBiasReLU:
			// Vectorized VMAXPD where possible: the branchy scalar form
			// pays a ~50% mispredict per element on random-sign
			// pre-activations. Identical semantics either way
			// (v > 0 ? v : 0, NaN -> 0), so mixing paths is bit-safe.
			j := 0
			if gemmSIMD {
				if q := n &^ 3; q > 0 {
					vecAddBiasRelu(q, &row[0], &bv[0])
					j = q
				}
			}
			for ; j < n; j++ {
				v := row[j] + bv[j]
				if v > 0 {
					row[j] = v
				} else {
					row[j] = 0
				}
			}
		case EpBiasSigmoid:
			for j, b := range bv {
				row[j] = 1 / (1 + math.Exp(-(row[j] + b)))
			}
		case EpBiasTanh:
			for j, b := range bv {
				row[j] = math.Tanh(row[j] + b)
			}
		case EpBiasSoftmax:
			mx := math.Inf(-1)
			for j, b := range bv {
				row[j] += b
				if row[j] > mx {
					mx = row[j]
				}
			}
			var sum float64
			for j := range row {
				row[j] = math.Exp(row[j] - mx)
				sum += row[j]
			}
			for j := range row {
				row[j] /= sum
			}
		}
	}
}

// ReluInto writes max(src, 0) elementwise into dst (NaN maps to 0 —
// the same contract as autodiff's reluFn and the fused bias+relu
// epilogue). dst may alias src. Vectorized on SIMD builds; the branchy
// reference loop otherwise and under tensor_noopt.
func ReluInto(dst, src *Dense) {
	if dst.rows != src.rows || dst.cols != src.cols {
		panic(fmt.Sprintf("tensor: ReluInto %dx%d from %dx%d", dst.rows, dst.cols, src.rows, src.cols))
	}
	d, s := dst.data, src.data
	i := 0
	if optimizedKernels && gemmSIMD {
		if q := len(s) &^ 3; q > 0 {
			vecRelu(q, &d[0], &s[0])
			i = q
		}
	}
	for ; i < len(s); i++ {
		if v := s[i]; v > 0 {
			d[i] = v
		} else {
			d[i] = 0
		}
	}
}

// Optimized reports whether the blocked kernel layer is active (false
// under the tensor_noopt build tag). internal/infer consults it before
// fusing plan steps.
func Optimized() bool { return optimizedKernels }

// SIMDEnabled reports whether the register-tiled micro-kernels run in
// SIMD assembly on this CPU (amd64 with AVX2+FMA) rather than portable Go.
func SIMDEnabled() bool { return gemmSIMD }
