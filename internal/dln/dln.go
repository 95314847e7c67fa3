// Package dln implements the Deep Lattice Network baseline (You et al.,
// NIPS 2017 — reference [40] of the paper): interlaced calibration and
// lattice-ensemble layers with partial monotonicity. Following the paper's
// Appendix B.2, the architecture has six layers — calibrators, linear
// embedding, calibrators, ensemble of lattices, calibrator, linear output.
//
// Monotonicity in the threshold t is guaranteed structurally: t passes
// through a monotone calibrator (non-decreasing outputs via isotonic
// projection), non-negative linear weights, monotone mid calibrators,
// lattices whose vertex values are projected to be non-decreasing along
// every edge, and a final monotone path. Sec. 6.2 of the SelNet paper
// analyses why this family underfits query-dependent selectivity curves:
// the calibrator keypoints are fixed and equally spaced, so — unlike
// SelNet — DLN cannot concentrate resolution where one query's curve
// bends. This implementation retains exactly that limitation on purpose.
package dln

import (
	"math"
	"math/rand"
	"sort"

	"selnet/internal/autodiff"
	"selnet/internal/nn"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// logEps pads selectivities before the logarithm, as in the paper's loss.
const logEps = 1e-3

// Config holds the DLN hyper-parameters.
type Config struct {
	Keypoints   int // calibrator keypoints (fixed, equally spaced)
	EmbedDim    int // linear embedding width
	NumLattices int // ensemble size
	LatticeDim  int // inputs per lattice
	Epochs      int
	Batch       int
	LR          float64
	HuberDelta  float64
	Seed        int64
}

// DefaultConfig returns the harness defaults.
func DefaultConfig() Config {
	return Config{
		Keypoints: 8, EmbedDim: 8, NumLattices: 6, LatticeDim: 3,
		Epochs: 60, Batch: 128, LR: 3e-3, HuberDelta: 1.345, Seed: 1,
	}
}

// calibrator is a 1-D piece-wise linear map with fixed keypoints and
// learnable outputs. When monotone, outputs are projected to be
// non-decreasing after every optimizer step (isotonic regression).
type calibrator struct {
	keypoints []float64 // fixed, ascending
	outputs   *nn.Param // 1 x len(keypoints)
	monotone  bool
}

func newCalibrator(rng *rand.Rand, name string, lo, hi float64, k int, monotone bool) *calibrator {
	if hi <= lo {
		hi = lo + 1
	}
	c := &calibrator{
		keypoints: make([]float64, k),
		outputs:   nn.NewParam(name, 1, k),
		monotone:  monotone,
	}
	for i := 0; i < k; i++ {
		c.keypoints[i] = lo + (hi-lo)*float64(i)/float64(k-1)
		// Initialize to the identity-like ramp in [0, 1].
		c.outputs.Value.Set(0, i, float64(i)/float64(k-1))
	}
	return c
}

// apply evaluates the calibrator on the column vector x (batch x 1).
func (c *calibrator) apply(tp *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	n := x.Rows()
	kp := tp.Input(tensor.RowVector(c.keypoints))
	tau := tp.RepeatRows(kp, n)
	p := tp.RepeatRows(c.outputs.Node(tp), n)
	return tp.PWLInterp(tau, p, x)
}

// project enforces the monotone constraint (and [0,1] clamping for inner
// calibrators feeding lattices) after an optimizer step.
func (c *calibrator) project(clamp01 bool) {
	out := c.outputs.Value.Row(0)
	if c.monotone {
		isotonicProject(out)
	}
	if clamp01 {
		for i, v := range out {
			if v < 0 {
				out[i] = 0
			} else if v > 1 {
				out[i] = 1
			}
		}
	}
}

// isotonicProject replaces vals with its L2 projection onto the
// non-decreasing cone (pool adjacent violators).
func isotonicProject(vals []float64) {
	n := len(vals)
	// Blocks of pooled values: value, weight.
	type block struct {
		sum float64
		w   float64
	}
	blocks := make([]block, 0, n)
	for _, v := range vals {
		blocks = append(blocks, block{sum: v, w: 1})
		for len(blocks) > 1 {
			last := blocks[len(blocks)-1]
			prev := blocks[len(blocks)-2]
			if prev.sum/prev.w <= last.sum/last.w {
				break
			}
			blocks = blocks[:len(blocks)-1]
			blocks[len(blocks)-1] = block{sum: prev.sum + last.sum, w: prev.w + last.w}
		}
	}
	i := 0
	for _, b := range blocks {
		mean := b.sum / b.w
		for k := 0; k < int(b.w); k++ {
			vals[i] = mean
			i++
		}
	}
}

// Model is a trained DLN selectivity estimator.
type Model struct {
	cfg  Config
	dim  int
	tmax float64

	inputCals []*calibrator // one per x dim + one (monotone) for t
	embedW    *nn.Param     // (dim+1) x EmbedDim, row dim (t) kept >= 0
	embedB    *nn.Param
	midCals   []*calibrator // EmbedDim monotone calibrators onto [0,1]
	lattices  []*nn.Param   // vertex values per lattice
	wiring    [][]int       // lattice input subsets into the embedding
	outW      *nn.Param     // NumLattices x 1, kept >= 0
	outB      *nn.Param
}

// New builds a DLN for dim-dimensional queries. Ranges of the input
// calibrators are taken from the training data by Fit.
func New(rng *rand.Rand, dim int, cfg Config) *Model {
	m := &Model{cfg: cfg, dim: dim}
	m.embedW = nn.NewParam("dln.embedW", dim+1, cfg.EmbedDim)
	nn.XavierInit(rng, m.embedW.Value, dim+1, cfg.EmbedDim)
	// The t row must start non-negative for the monotone path.
	for j := 0; j < cfg.EmbedDim; j++ {
		m.embedW.Value.Set(dim, j, math.Abs(m.embedW.Value.At(dim, j)))
	}
	m.embedB = nn.NewParam("dln.embedB", 1, cfg.EmbedDim)
	for l := 0; l < cfg.NumLattices; l++ {
		verts := autodiff.LatticeVertexCount(cfg.LatticeDim)
		p := nn.NewParam("dln.lat", 1, verts)
		for c := 0; c < verts; c++ {
			p.Value.Set(0, c, float64(popcount(c))/float64(cfg.LatticeDim)+0.01*rng.NormFloat64())
		}
		m.lattices = append(m.lattices, p)
		sub := rng.Perm(cfg.EmbedDim)[:cfg.LatticeDim]
		sort.Ints(sub)
		m.wiring = append(m.wiring, sub)
	}
	m.outW = nn.NewParam("dln.outW", cfg.NumLattices, 1)
	for l := 0; l < cfg.NumLattices; l++ {
		m.outW.Value.Set(l, 0, 1/float64(cfg.NumLattices))
	}
	m.outB = nn.NewParam("dln.outB", 1, 1)
	return m
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		n += x & 1
		x >>= 1
	}
	return n
}

// Params returns all trainable tensors.
func (m *Model) Params() []*nn.Param {
	ps := []*nn.Param{m.embedW, m.embedB, m.outW, m.outB}
	for _, c := range m.inputCals {
		ps = append(ps, c.outputs)
	}
	for _, c := range m.midCals {
		ps = append(ps, c.outputs)
	}
	ps = append(ps, m.lattices...)
	return ps
}

// forwardLog computes the log-selectivity for the batch (x, t).
func (m *Model) forwardLog(tp *autodiff.Tape, x, t *autodiff.Node) *autodiff.Node {
	// Layer 1: per-dimension calibrators.
	var calibrated *autodiff.Node
	for j := 0; j < m.dim; j++ {
		cj := m.inputCals[j].apply(tp, tp.SliceCols(x, j, j+1))
		if calibrated == nil {
			calibrated = cj
		} else {
			calibrated = tp.ConcatCols(calibrated, cj)
		}
	}
	ct := m.inputCals[m.dim].apply(tp, t)
	calibrated = tp.ConcatCols(calibrated, ct)
	// Layer 2: linear embedding (t row projected >= 0 after each step).
	embed := tp.AddRow(tp.MatMul(calibrated, m.embedW.Node(tp)), m.embedB.Node(tp))
	// Layer 3: monotone calibrators squashing each channel into [0,1].
	var mid *autodiff.Node
	for j := 0; j < m.cfg.EmbedDim; j++ {
		cj := m.midCals[j].apply(tp, tp.SliceCols(embed, j, j+1))
		if mid == nil {
			mid = cj
		} else {
			mid = tp.ConcatCols(mid, cj)
		}
	}
	// Layer 4: ensemble of lattices on wired subsets.
	var lat *autodiff.Node
	for l, theta := range m.lattices {
		var in *autodiff.Node
		for _, j := range m.wiring[l] {
			col := tp.SliceCols(mid, j, j+1)
			if in == nil {
				in = col
			} else {
				in = tp.ConcatCols(in, col)
			}
		}
		out := tp.Lattice(in, theta.Node(tp))
		if lat == nil {
			lat = out
		} else {
			lat = tp.ConcatCols(lat, out)
		}
	}
	// Layers 5-6: final monotone linear combination.
	return tp.AddRow(tp.MatMul(lat, m.outW.Node(tp)), m.outB.Node(tp))
}

// project re-establishes every monotonicity constraint; called after each
// optimizer step.
func (m *Model) project() {
	// Input calibrators: only the t calibrator is monotone; it also feeds
	// the embedding, whose t row is clamped non-negative.
	for i, c := range m.inputCals {
		c.project(false)
		_ = i
	}
	for j := 0; j < m.cfg.EmbedDim; j++ {
		if v := m.embedW.Value.At(m.dim, j); v < 0 {
			m.embedW.Value.Set(m.dim, j, 0)
		}
	}
	for _, c := range m.midCals {
		c.project(true) // lattice inputs stay in [0,1]
	}
	// Lattice vertex values: a few alternating sweeps of pairwise averaging
	// approximate the projection onto the monotone cone along every dim.
	for _, theta := range m.lattices {
		row := theta.Value.Row(0)
		for sweep := 0; sweep < 3; sweep++ {
			changed := false
			for j := 0; j < m.cfg.LatticeDim; j++ {
				for _, pr := range autodiff.LatticeEdgePairs(m.cfg.LatticeDim, j) {
					lo, hi := row[pr[0]], row[pr[1]]
					if hi < lo {
						mean := (lo + hi) / 2
						row[pr[0]], row[pr[1]] = mean, mean
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	// Output weights non-negative.
	for l := 0; l < m.cfg.NumLattices; l++ {
		if v := m.outW.Value.At(l, 0); v < 0 {
			m.outW.Value.Set(l, 0, 0)
		}
	}
}

// Fit trains the DLN on labelled queries with the Huber-log objective.
func (m *Model) Fit(train []vecdata.Query) {
	if len(train) == 0 {
		panic("dln: no training queries")
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	// Input calibrator ranges from the data.
	dim := m.dim
	lo := make([]float64, dim+1)
	hi := make([]float64, dim+1)
	for j := range lo {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for _, q := range train {
		for j, v := range q.X {
			lo[j] = math.Min(lo[j], v)
			hi[j] = math.Max(hi[j], v)
		}
		lo[dim] = math.Min(lo[dim], q.T)
		hi[dim] = math.Max(hi[dim], q.T)
	}
	if hi[dim] > 0 {
		m.tmax = hi[dim]
	} else {
		m.tmax = 1
	}
	m.inputCals = nil
	for j := 0; j <= dim; j++ {
		m.inputCals = append(m.inputCals,
			newCalibrator(rng, "dln.cal", lo[j], hi[j], m.cfg.Keypoints, j == dim))
	}
	m.midCals = nil
	for j := 0; j < m.cfg.EmbedDim; j++ {
		// Mid calibrators span a generous pre-activation range.
		m.midCals = append(m.midCals, newCalibrator(rng, "dln.mid", -4, 4, m.cfg.Keypoints, true))
	}
	m.project()

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
			b := idx[s:end]
			tp := autodiff.NewTape()
			out := m.forwardLog(tp, tp.Input(tensor.GatherRows(x, b)), tp.Input(tensor.GatherRows(t, b)))
			target := tp.Input(tensor.GatherRows(logy, b))
			loss := tp.HuberResidualLoss(out, target, m.cfg.HuberDelta)
			tp.Backward(loss)
			opt.Step(m.Params())
			m.project()
		}
	}
}

// Estimate returns the predicted selectivity for (x, t).
func (m *Model) Estimate(x []float64, t float64) float64 {
	tp := autodiff.NewTape()
	xn := tp.Input(tensor.RowVector(x))
	tn := tp.Input(tensor.FromRows([][]float64{{t}}))
	z := m.forwardLog(tp, xn, tn).Scalar()
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
	z := m.forwardLog(tp, tp.Input(x), tp.Input(tensor.ColVector(ts)))
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

// TMax returns the largest threshold seen during training (the t
// calibrator's top keypoint).
func (m *Model) TMax() float64 { return m.tmax }

// Name returns the paper's model name.
func (m *Model) Name() string { return "DLN" }

// ConsistencyGuaranteed reports that monotonicity in t holds by
// construction (projected constraints).
func (m *Model) ConsistencyGuaranteed() bool { return true }
