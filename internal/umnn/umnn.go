// Package umnn implements the UMNN baseline (Wehenkel & Louppe,
// "Unconstrained monotonic neural networks", NeurIPS 2019 — reference [35]
// of the paper). The estimator models the *derivative* of the selectivity
// curve with an unconstrained network forced positive through a softplus
// output, and integrates it with Clenshaw–Curtis quadrature:
//
//	F(x, t) = (t/2) * sum_k w_k * g(x, s_k(t)) + beta(x),
//	s_k(t)  = t * (cos(k*pi/N) + 1) / 2.
//
// Because g > 0 and the quadrature weights are positive, F is monotone in
// t up to quadrature error — the sense in which the SelNet paper marks
// UMNN as consistent. Sec. 6.3 of the paper criticizes exactly the
// property this implementation shares: the integration nodes s_k are the
// same relative positions for every query x, so resolution cannot follow
// the query-dependent "interesting region" of the curve.
package umnn

import (
	"math"
	"math/rand"

	"selnet/internal/autodiff"
	"selnet/internal/nn"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// logEps pads selectivities before the logarithm in the training loss.
const logEps = 1e-3

// Config holds UMNN hyper-parameters.
type Config struct {
	QuadPoints int // quadrature nodes N (N+1 evaluations)
	Hidden     []int
	Epochs     int
	Batch      int
	LR         float64
	HuberDelta float64
	Seed       int64
}

// DefaultConfig returns the harness defaults.
func DefaultConfig() Config {
	return Config{QuadPoints: 16, Hidden: []int{64, 64}, Epochs: 60, Batch: 128,
		LR: 3e-3, HuberDelta: 1.345, Seed: 1}
}

// Model is a trained UMNN selectivity estimator. The network regresses the
// log-selectivity: z(x,t) = integral + offset, yhat = exp(z) - eps.
type Model struct {
	cfg       Config
	dim       int
	tmax      float64
	integrand *nn.FFN // [x, s] -> softplus scalar (> 0)
	offset    *nn.FFN // x -> scalar
	nodes     []float64
	weights   []float64
}

// New builds the model for dim-dimensional queries.
func New(rng *rand.Rand, dim int, cfg Config) *Model {
	intSizes := append(append([]int{dim + 1}, cfg.Hidden...), 1)
	offSizes := append(append([]int{dim}, cfg.Hidden...), 1)
	nodes, weights := ClenshawCurtis(cfg.QuadPoints)
	return &Model{
		cfg:       cfg,
		dim:       dim,
		integrand: nn.NewFFN(rng, "umnn.g", intSizes, nn.ActReLU, nn.ActSoftplus),
		offset:    nn.NewFFN(rng, "umnn.b", offSizes, nn.ActReLU, nn.ActNone),
		nodes:     nodes,
		weights:   weights,
	}
}

// ClenshawCurtis returns the N+1 nodes u_k = cos(k*pi/N) on [-1, 1] and
// the classic Clenshaw–Curtis weights, which are strictly positive and
// integrate polynomials of degree <= N exactly.
func ClenshawCurtis(n int) (nodes, weights []float64) {
	if n < 2 {
		panic("umnn: need at least 2 quadrature intervals")
	}
	nodes = make([]float64, n+1)
	weights = make([]float64, n+1)
	for k := 0; k <= n; k++ {
		nodes[k] = math.Cos(float64(k) * math.Pi / float64(n))
		ck := 2.0
		if k == 0 || k == n {
			ck = 1.0
		}
		sum := 0.0
		for j := 1; j <= n/2; j++ {
			bj := 2.0
			if 2*j == n {
				bj = 1.0
			}
			sum += bj / float64(4*j*j-1) * math.Cos(2*math.Pi*float64(j*k)/float64(n))
		}
		weights[k] = ck / float64(n) * (1 - sum)
	}
	return nodes, weights
}

// Params returns all trainable tensors.
func (m *Model) Params() []*nn.Param {
	return append(m.integrand.Params(), m.offset.Params()...)
}

// forwardLog computes the log-selectivity for a batch: x is batch x dim,
// t is batch x 1.
func (m *Model) forwardLog(tp *autodiff.Tape, x *tensor.Dense, t *tensor.Dense) *autodiff.Node {
	b := x.Rows()
	nq := len(m.nodes)
	// Assemble the (b*nq) x (dim+1) integrand input: row (i, k) is
	// [x_i, s_k(t_i)].
	in := tensor.New(b*nq, m.dim+1)
	for i := 0; i < b; i++ {
		ti := t.At(i, 0)
		for k := 0; k < nq; k++ {
			row := in.Row(i*nq + k)
			copy(row, x.Row(i))
			row[m.dim] = ti * (m.nodes[k] + 1) / 2
		}
	}
	g := m.integrand.Apply(tp, tp.Input(in)) // (b*nq) x 1, positive
	gMat := tp.Reshape(g, b, nq)             // b x nq
	wRep := tp.RepeatRows(tp.Input(tensor.RowVector(m.weights)), b)
	integ := tp.SumColsKeep(tp.Mul(gMat, wRep)) // b x 1: sum_k w_k g
	half := tp.Input(tensor.Apply(t, func(v float64) float64 { return v / 2 }))
	scaled := tp.MulColBroadcast(integ, half) // (t/2) * sum
	off := m.offset.Apply(tp, tp.Input(x))
	return tp.Add(scaled, off)
}

// Fit trains on labelled queries with the Huber-log objective.
func (m *Model) Fit(train []vecdata.Query) {
	if len(train) == 0 {
		panic("umnn: no training queries")
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	for _, q := range train {
		if q.T > m.tmax {
			m.tmax = q.T
		}
	}
	if m.tmax == 0 {
		m.tmax = 1
	}
	x, t, y := vecdata.Matrices(train)
	logy := tensor.Apply(y, func(v float64) float64 { return math.Log(v + logEps) })
	opt := nn.NewAdam(m.cfg.LR)
	n := len(train)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < m.cfg.Epochs; e++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < n; s += m.cfg.Batch {
			end := s + m.cfg.Batch
			if end > n {
				end = n
			}
			bidx := idx[s:end]
			tp := autodiff.NewTape()
			out := m.forwardLog(tp, tensor.GatherRows(x, bidx), tensor.GatherRows(t, bidx))
			target := tp.Input(tensor.GatherRows(logy, bidx))
			loss := tp.HuberResidualLoss(out, target, m.cfg.HuberDelta)
			tp.Backward(loss)
			opt.Step(m.Params())
		}
	}
}

// Estimate returns the predicted selectivity for (x, t).
func (m *Model) Estimate(x []float64, t float64) float64 {
	tp := autodiff.NewTape()
	z := m.forwardLog(tp, tensor.RowVector(x), tensor.FromRows([][]float64{{t}})).Scalar()
	v := math.Exp(z) - logEps
	if v < 0 {
		return 0
	}
	return v
}

// EstimateBatch runs one batched forward pass over all queries. Safe for
// concurrent use: each call owns its tape, parameters are read-only.
func (m *Model) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	tp := autodiff.NewTape()
	z := m.forwardLog(tp, x, tensor.ColVector(ts))
	out := make([]float64, x.Rows())
	for i := range out {
		v := math.Exp(z.Value.At(i, 0)) - logEps
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// Dim returns the query dimensionality.
func (m *Model) Dim() int { return m.dim }

// TMax returns the largest threshold seen during training.
func (m *Model) TMax() float64 { return m.tmax }

// Name returns the paper's model name.
func (m *Model) Name() string { return "UMNN" }

// ConsistencyGuaranteed reports monotonicity by construction (positive
// integrand, positive quadrature weights), up to quadrature error — the
// same sense in which the paper stars UMNN.
func (m *Model) ConsistencyGuaranteed() bool { return true }
