package autodiff

import (
	"math"

	"selnet/internal/tensor"
)

// This file holds the forward-only kernels of the structured ops
// (softmax, Norml2, PWL interpolation, block-linear). Each computes its
// op's output into a caller-owned buffer with zero allocations, so one
// implementation serves both the gradient tape's forward pass and the
// kernels a recording tape emits into an infer.Program.

// softmaxInto computes the row-wise softmax of a into out. out may
// alias a.
func softmaxInto(out, a *tensor.Dense) {
	for i := 0; i < a.Rows(); i++ {
		row := a.Row(i)
		mx := math.Inf(-1)
		for _, x := range row {
			if x > mx {
				mx = x
			}
		}
		var sum float64
		o := out.Row(i)
		for j, x := range row {
			e := math.Exp(x - mx)
			o[j] = e
			sum += e
		}
		for j := range o {
			o[j] /= sum
		}
	}
}

// norml2Into computes the paper's normalized-square transform of a into
// out: out[i,j] = (a[i,j]² + eps/d) / (Σ_k a[i,k]² + eps). out may
// alias a.
func norml2Into(out, a *tensor.Dense, eps float64) {
	d := float64(a.Cols())
	for i := 0; i < a.Rows(); i++ {
		row := a.Row(i)
		var s float64
		for _, x := range row {
			s += x * x
		}
		s += eps
		o := out.Row(i)
		for j, x := range row {
			o[j] = (x*x + eps/d) / s
		}
	}
}

// rowSquareSum returns Σ_k a[i,k]² + eps for row i — the denominator
// norml2Into used, recomputed for the gradient.
func rowSquareSum(a *tensor.Dense, i int, eps float64) float64 {
	var s float64
	for _, x := range a.Row(i) {
		s += x * x
	}
	return s + eps
}

// pwlInterpInto evaluates Eq. (1)'s piece-wise linear interpolation into
// the column vector out, one PWLAt per row.
func pwlInterpInto(out, tau, p, tq *tensor.Dense) {
	for r := 0; r < tau.Rows(); r++ {
		out.Set(r, 0, PWLAt(tau.Row(r), p.Row(r), tq.At(r, 0)))
	}
}

// PWLAt evaluates one row of Eq. (1): p linearly interpolated at
// threshold x over the non-decreasing knots tau, clamped to
// [tau_0, tau_last]. It is the arithmetic of every compiled PWL kernel,
// so a caller interpolating a plan's Tau/P outputs itself gets the
// plan's estimate bit for bit.
func PWLAt(tau, p []float64, x float64) float64 {
	L := len(tau)
	switch {
	case x <= tau[0]:
		return p[0]
	case x >= tau[L-1]:
		return p[L-1]
	}
	// Binary search for the first tau >= x.
	lo, hi := 1, L-1
	for lo < hi {
		mid := (lo + hi) / 2
		if tau[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	den := tau[i] - tau[i-1]
	var w float64
	if den > 0 {
		w = (x - tau[i-1]) / den
	}
	return p[i-1] + w*(p[i]-p[i-1])
}

// blockLinearInto applies the per-block linear decoder into out:
// out[r, l] = Σ_k a[r, l*bw+k] * w[l, k] + b[0, l].
//
// Four blocks run side by side so their add chains overlap; each block
// keeps its own chain from the bias in ascending k, so every output has
// the bits of the one-block-at-a-time loop.
func blockLinearInto(out, a, w, b *tensor.Dense, nb, bw int) {
	wd, bias := w.Data(), b.Data()
	for r := 0; r < a.Rows(); r++ {
		arow := a.Row(r)
		o := out.Row(r)
		l := 0
		for ; l+4 <= nb; l += 4 {
			a0 := arow[l*bw : (l+1)*bw]
			a1, a2, a3 := arow[(l+1)*bw:][:len(a0)], arow[(l+2)*bw:][:len(a0)], arow[(l+3)*bw:][:len(a0)]
			w0, w1, w2, w3 := wd[l*bw:][:len(a0)], wd[(l+1)*bw:][:len(a0)], wd[(l+2)*bw:][:len(a0)], wd[(l+3)*bw:][:len(a0)]
			s0, s1, s2, s3 := bias[l], bias[l+1], bias[l+2], bias[l+3]
			for k := range a0 {
				s0 += a0[k] * w0[k]
				s1 += a1[k] * w1[k]
				s2 += a2[k] * w2[k]
				s3 += a3[k] * w3[k]
			}
			o[l], o[l+1], o[l+2], o[l+3] = s0, s1, s2, s3
		}
		for ; l < nb; l++ {
			blk, wrow := arow[l*bw:(l+1)*bw], wd[l*bw:(l+1)*bw]
			s := bias[l]
			for k, x := range blk {
				s += x * wrow[k]
			}
			o[l] = s
		}
	}
}
