package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"selnet/internal/infer"
	"selnet/internal/tensor"
)

// TestForwardTapeReplayMatchesFreshTape records a forward pass once,
// then replays it over mutated inputs and parameters and checks the
// outputs match a freshly built gradient tape at every step.
func TestForwardTapeReplayMatchesFreshTape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const batch, din, dh = 4, 3, 5
	x := randDense(rng, batch, din)
	tq := randDense(rng, batch, 1)
	w1 := randDense(rng, din, dh)
	b1 := randDense(rng, 1, dh)
	w2 := randDense(rng, dh+din, 6)
	bw := randDense(rng, 2, (dh+din)/2)
	bb := randDense(rng, 1, 2)

	graph := func(tp *Tape, x, tq *tensor.Dense) *Node {
		xn := tp.Input(x)
		h := tp.ReLU(tp.AddRow(tp.MatMul(xn, tp.Leaf(w1, tensor.New(din, dh))), tp.Leaf(b1, tensor.New(1, dh))))
		h = tp.ELU(tp.Softplus(tp.Sigmoid(tp.Tanh(h))), 0.7)
		h = tp.ConcatCols(h, xn)
		raw := tp.MatMul(h, tp.Leaf(w2, tensor.New(dh+din, 6)))
		k := tp.ReLU(tp.BlockLinear(h, tp.Leaf(bw, tensor.New(bw.Rows(), bw.Cols())), tp.Leaf(bb, tensor.New(1, 2)), 2, (dh+din)/2))
		wide := tp.ConcatCols(raw, k) // 8 columns feeding both generators
		tau := tp.PrefixSumCols(tp.Scale(tp.Norml2(wide, 1e-6), 2))
		p := tp.PrefixSumCols(tp.Softmax(wide))
		return tp.PWLInterp(tau, p, tp.Input(tq))
	}

	// Record once against private input buffers.
	prog := infer.NewProgram()
	rec := NewForwardTape(prog)
	xBuf, tqBuf := x.Clone(), tq.Clone()
	out := graph(rec, xBuf, tqBuf)
	if prog.Len() == 0 {
		t.Fatal("recording tape emitted no kernels")
	}

	for trial := 0; trial < 5; trial++ {
		// Mutate inputs in place and (on later trials) a parameter, the way
		// serving fills plan buffers and training updates weights.
		for i := range xBuf.Data() {
			xBuf.Data()[i] = rng.NormFloat64()
		}
		for i := range tqBuf.Data() {
			tqBuf.Data()[i] = rng.Float64() * 2
		}
		if trial >= 3 {
			w1.Data()[trial] += 0.25
		}
		prog.Run()

		ref := graph(NewTape(), xBuf.Clone(), tqBuf.Clone())
		for i := range ref.Value.Data() {
			got, want := out.Value.Data()[i], ref.Value.Data()[i]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d row %d: replay %v, fresh tape %v", trial, i, got, want)
			}
		}
	}
}

func TestForwardTapeRejectsTrainingOps(t *testing.T) {
	rec := NewForwardTape(infer.NewProgram())
	a := rec.Input(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("training-only op did not panic on a recording tape")
		}
	}()
	rec.Mul(a, a)
}

func TestForwardTapeRejectsBackward(t *testing.T) {
	rec := NewForwardTape(infer.NewProgram())
	n := rec.Input(tensor.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward did not panic on a recording tape")
		}
	}()
	rec.Backward(n)
}

// TestBlockLinearIntoMatchesSerialChain checks the four-blocks-at-a-time
// decoder against one ascending chain per block, started from the bias,
// for Float64bits equality: block counts on both sides of the stride of
// four, and inputs with ±0, NaN and ±Inf.
func TestBlockLinearIntoMatchesSerialChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, nb := range []int{1, 3, 4, 5, 8, 9, 11} {
		for _, bw := range []int{1, 2, 7, 16} {
			const rows = 3
			a := randDense(rng, rows, nb*bw)
			w := randDense(rng, nb, bw)
			b := randDense(rng, 1, nb)
			for i := 0; i < 2; i++ {
				a.Set(rng.Intn(rows), rng.Intn(nb*bw), specials[rng.Intn(len(specials))])
				w.Set(rng.Intn(nb), rng.Intn(bw), math.Copysign(0, -1))
			}
			got := tensor.New(rows, nb)
			blockLinearInto(got, a, w, b, nb, bw)
			for r := 0; r < rows; r++ {
				for l := 0; l < nb; l++ {
					s := b.At(0, l)
					for k := 0; k < bw; k++ {
						s += a.At(r, l*bw+k) * w.At(l, k)
					}
					if math.Float64bits(got.At(r, l)) != math.Float64bits(s) {
						t.Fatalf("nb=%d bw=%d out[%d,%d] = %v, want %v", nb, bw, r, l, got.At(r, l), s)
					}
				}
			}
		}
	}
}
