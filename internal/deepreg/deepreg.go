// Package deepreg implements the paper's ordinary deep-regression
// baselines (Sec. 7.1): DNN (a vanilla feed-forward network), MoE (a
// sparsely-gated mixture of experts) and RMI (a recursive model index
// trained stage-wise). None of them guarantees consistency — they are the
// unstarred rows of Tables 1-4 — so they are offline baselines only:
// internal/experiments fits and scores them in memory, and the model
// codec refuses to serve them.
//
// Following Appendix B.2, these models cannot consume the threshold t
// directly: t is first lifted to an m-dimensional embedding ReLU(w*t)
// with a learned weight vector w, then concatenated with the query
// vector. All models regress the log-selectivity z = log(y+eps) under the
// same Huber loss used by SelNet, and report exp(z)-eps clamped at zero.
package deepreg

import (
	"math"
	"math/rand"

	"selnet/internal/autodiff"
	"selnet/internal/nn"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// logEps pads selectivities before the logarithm, as in the paper's loss.
const logEps = 1e-3

// TrainConfig holds the shared training hyper-parameters.
type TrainConfig struct {
	Epochs     int
	Batch      int
	LR         float64
	HuberDelta float64
	Seed       int64
	// EvalEvery selects the best parameters on the validation set every
	// this many epochs (0 disables snapshotting).
	EvalEvery int
}

// DefaultTrainConfig returns the harness defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 60, Batch: 128, LR: 3e-3, HuberDelta: 1.345, Seed: 1, EvalEvery: 5}
}

// TEmbed is the learned threshold embedding ReLU(w*t) of Appendix B.2.
type TEmbed struct {
	W *nn.Param
}

// NewTEmbed creates an m-dimensional threshold embedding.
func NewTEmbed(rng *rand.Rand, name string, m int) *TEmbed {
	e := &TEmbed{W: nn.NewParam(name+".tembed", 1, m)}
	nn.XavierInit(rng, e.W.Value, 1, m)
	return e
}

// Apply lifts the column vector t (batch x 1) to batch x m.
func (e *TEmbed) Apply(tp *autodiff.Tape, t *autodiff.Node) *autodiff.Node {
	return tp.ReLU(tp.MatMul(t, e.W.Node(tp)))
}

// Params returns the embedding weight.
func (e *TEmbed) Params() []*nn.Param { return []*nn.Param{e.W} }

// Dim returns the embedding width.
func (e *TEmbed) Dim() int { return e.W.Value.Cols() }

// logForward is the log-space forward pass shared by the baselines.
type logForward interface {
	forwardLog(tp *autodiff.Tape, x, t *autodiff.Node) *autodiff.Node
	Params() []*nn.Param
}

// trainLogRegressor optimizes the Huber-log objective over mini-batches,
// optionally snapshotting the best-validation parameters.
func trainLogRegressor(m logForward, cfg TrainConfig, train, valid []vecdata.Query) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	x, t, y := vecdata.Matrices(train)
	// Pre-compute log targets once.
	logy := tensor.Apply(y, func(v float64) float64 { return math.Log(v + logEps) })
	n := len(train)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var best []*tensor.Dense
	bestLoss := math.Inf(1)
	snapshot := func() {
		if len(valid) == 0 {
			return
		}
		l := validationLoss(m, cfg, valid)
		if l < bestLoss {
			bestLoss = l
			best = best[:0]
			for _, p := range m.Params() {
				best = append(best, p.Value.Clone())
			}
		}
	}
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < n; s += cfg.Batch {
			end := s + cfg.Batch
			if end > n {
				end = n
			}
			b := idx[s:end]
			tp := autodiff.NewTape()
			xb := tp.Input(tensor.GatherRows(x, b))
			tb := tp.Input(tensor.GatherRows(t, b))
			yb := tp.Input(tensor.GatherRows(logy, b))
			out := m.forwardLog(tp, xb, tb)
			loss := huberOnNodes(tp, out, yb, cfg.HuberDelta)
			tp.Backward(loss)
			opt.Step(m.Params())
		}
		if cfg.EvalEvery > 0 && (e+1)%cfg.EvalEvery == 0 {
			snapshot()
		}
	}
	snapshot()
	if best != nil {
		for i, p := range m.Params() {
			p.Value.CopyFrom(best[i])
		}
	}
}

// huberOnNodes computes the mean exact Huber(delta) loss of the residual
// (target - pred) for log-space column vectors already on the tape.
func huberOnNodes(tp *autodiff.Tape, pred, target *autodiff.Node, delta float64) *autodiff.Node {
	return tp.HuberResidualLoss(pred, target, delta)
}

func validationLoss(m logForward, cfg TrainConfig, valid []vecdata.Query) float64 {
	x, t, y := vecdata.Matrices(valid)
	logy := tensor.Apply(y, func(v float64) float64 { return math.Log(v + logEps) })
	tp := autodiff.NewTape()
	out := m.forwardLog(tp, tp.Input(x), tp.Input(t))
	return huberOnNodes(tp, out, tp.Input(logy), cfg.HuberDelta).Scalar()
}

// estimateLog runs a single-query forward pass and maps back to
// selectivity space.
func estimateLog(m logForward, x []float64, t float64) float64 {
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
