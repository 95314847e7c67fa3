package deepreg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"selnet/internal/autodiff"
	"selnet/internal/nn"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// ----------------------------------------------------------------------------
// DNN

// DNN is the vanilla feed-forward regression baseline (four hidden layers
// in the paper; sizes are configurable here).
type DNN struct {
	embed *TEmbed
	ffn   *nn.FFN
}

// NewDNN builds the network for dim-dimensional queries with the given
// hidden sizes and threshold-embedding width.
func NewDNN(rng *rand.Rand, dim int, hidden []int, tEmbedDim int) *DNN {
	sizes := append(append([]int{dim + tEmbedDim}, hidden...), 1)
	return &DNN{
		embed: NewTEmbed(rng, "dnn", tEmbedDim),
		ffn:   nn.NewFFN(rng, "dnn", sizes, nn.ActReLU, nn.ActNone),
	}
}

func (d *DNN) forwardLog(tp *autodiff.Tape, x, t *autodiff.Node) *autodiff.Node {
	in := tp.ConcatCols(x, d.embed.Apply(tp, t))
	return d.ffn.Apply(tp, in)
}

// Params returns all trainable tensors.
func (d *DNN) Params() []*nn.Param { return append(d.embed.Params(), d.ffn.Params()...) }

// Fit trains the model on the labelled queries.
func (d *DNN) Fit(cfg TrainConfig, train, valid []vecdata.Query) {
	trainLogRegressor(d, cfg, train, valid)
}

// Estimate returns the predicted selectivity.
func (d *DNN) Estimate(x []float64, t float64) float64 { return estimateLog(d, x, t) }

// Name returns the paper's model name.
func (d *DNN) Name() string { return "DNN" }

// ----------------------------------------------------------------------------
// MoE

// MoE is the sparsely-gated mixture-of-experts baseline [29]: a gating
// network scores the experts, the top-k gates are kept and renormalized,
// and the output is the gated sum of expert predictions.
type MoE struct {
	embed   *TEmbed
	gate    *nn.FFN
	experts []*nn.FFN
	topK    int
}

// NewMoE builds numExperts experts with the given hidden sizes and a
// linear gating network; topK experts are active per example.
func NewMoE(rng *rand.Rand, dim int, hidden []int, tEmbedDim, numExperts, topK int) *MoE {
	if topK < 1 || topK > numExperts {
		panic(fmt.Sprintf("deepreg: topK %d out of range [1, %d]", topK, numExperts))
	}
	in := dim + tEmbedDim
	m := &MoE{
		embed: NewTEmbed(rng, "moe", tEmbedDim),
		gate:  nn.NewFFN(rng, "moe.gate", []int{in, numExperts}, nn.ActNone, nn.ActNone),
		topK:  topK,
	}
	for e := 0; e < numExperts; e++ {
		sizes := append(append([]int{in}, hidden...), 1)
		m.experts = append(m.experts, nn.NewFFN(rng, fmt.Sprintf("moe.e%d", e), sizes, nn.ActReLU, nn.ActNone))
	}
	return m
}

func (m *MoE) forwardLog(tp *autodiff.Tape, x, t *autodiff.Node) *autodiff.Node {
	in := tp.ConcatCols(x, m.embed.Apply(tp, t))
	logits := m.gate.Apply(tp, in)
	gates := tp.Softmax(logits)
	// Top-k mask from forward values (selection is non-differentiable; the
	// surviving gates keep their gradients, as in the original paper).
	mask := tensor.New(gates.Rows(), gates.Cols())
	for i := 0; i < gates.Rows(); i++ {
		row := gates.Value.Row(i)
		order := argsortDesc(row)
		for k := 0; k < m.topK; k++ {
			mask.Set(i, order[k], 1)
		}
	}
	masked := tp.Mul(gates, tp.Input(mask))
	norm := tp.RecipCol(tp.SumColsKeep(masked), 1e-12)
	gatesNorm := tp.MulColBroadcast(masked, norm)
	// Expert outputs side by side: batch x numExperts.
	outs := m.experts[0].Apply(tp, in)
	for e := 1; e < len(m.experts); e++ {
		outs = tp.ConcatCols(outs, m.experts[e].Apply(tp, in))
	}
	return tp.SumColsKeep(tp.Mul(gatesNorm, outs))
}

// Params returns all trainable tensors.
func (m *MoE) Params() []*nn.Param {
	ps := append(m.embed.Params(), m.gate.Params()...)
	for _, e := range m.experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// Fit trains the model on the labelled queries.
func (m *MoE) Fit(cfg TrainConfig, train, valid []vecdata.Query) {
	trainLogRegressor(m, cfg, train, valid)
}

// Estimate returns the predicted selectivity.
func (m *MoE) Estimate(x []float64, t float64) float64 { return estimateLog(m, x, t) }

// Name returns the paper's model name.
func (m *MoE) Name() string { return "MoE" }

func argsortDesc(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx
}

// ----------------------------------------------------------------------------
// RMI

// RMI is the recursive model index baseline [20], adapted to regression as
// in the paper: a three-level hierarchy (1, B1, B2 models) where each
// level's prediction routes the example to a model of the next level, and
// models are trained stage-wise on the examples routed to them.
type RMI struct {
	embed  *TEmbed
	levels [][]*rmiModel
	// Routing normalization bounds per level (min/max of that level's
	// predictions over the training set).
	lo, hi []float64
}

type rmiModel struct {
	ffn     *nn.FFN
	trained bool
}

// NewRMI builds a three-level RMI with the given per-level model counts
// (counts[0] must be 1) and hidden sizes shared by all models.
func NewRMI(rng *rand.Rand, dim int, hidden []int, tEmbedDim int, counts []int) *RMI {
	if len(counts) < 2 || counts[0] != 1 {
		panic("deepreg: RMI needs counts starting with 1")
	}
	in := dim + tEmbedDim
	r := &RMI{
		embed: NewTEmbed(rng, "rmi", tEmbedDim),
		lo:    make([]float64, len(counts)),
		hi:    make([]float64, len(counts)),
	}
	for li, c := range counts {
		level := make([]*rmiModel, c)
		for mi := range level {
			sizes := append(append([]int{in}, hidden...), 1)
			level[mi] = &rmiModel{ffn: nn.NewFFN(rng, fmt.Sprintf("rmi.l%d.m%d", li, mi), sizes, nn.ActReLU, nn.ActNone)}
		}
		r.levels = append(r.levels, level)
	}
	return r
}

// rmiSingle adapts one RMI sub-model to the shared training loop.
type rmiSingle struct {
	embed *TEmbed
	ffn   *nn.FFN
}

func (s *rmiSingle) forwardLog(tp *autodiff.Tape, x, t *autodiff.Node) *autodiff.Node {
	return s.ffn.Apply(tp, tp.ConcatCols(x, s.embed.Apply(tp, t)))
}

func (s *rmiSingle) Params() []*nn.Param { return append(s.embed.Params(), s.ffn.Params()...) }

// Fit trains the hierarchy stage by stage: level 0 on everything, then
// each next-level model on the examples its parent routes to it.
func (r *RMI) Fit(cfg TrainConfig, train, valid []vecdata.Query) {
	assigned := [][]vecdata.Query{train}
	for li, level := range r.levels {
		// Train every model of this level on its assigned examples.
		preds := make([]float64, 0, len(train))
		var allQ []vecdata.Query
		for mi, m := range level {
			if mi >= len(assigned) || len(assigned[mi]) == 0 {
				continue
			}
			sub := &rmiSingle{embed: r.embed, ffn: m.ffn}
			subCfg := cfg
			subCfg.Seed = cfg.Seed + int64(li*1000+mi)
			trainLogRegressor(sub, subCfg, assigned[mi], nil)
			m.trained = true
			for _, q := range assigned[mi] {
				preds = append(preds, r.predictAtLevel(li, mi, q.X, q.T))
				allQ = append(allQ, q)
			}
		}
		if li == len(r.levels)-1 {
			break
		}
		// Normalization bounds for routing to the next level.
		r.lo[li], r.hi[li] = bounds(preds)
		next := make([][]vecdata.Query, len(r.levels[li+1]))
		for i, q := range allQ {
			idx := r.route(li, preds[i], len(r.levels[li+1]))
			next[idx] = append(next[idx], q)
		}
		assigned = next
	}
	_ = valid // stage-wise training uses no global validation snapshot
}

func bounds(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	return lo, hi
}

func (r *RMI) route(level int, pred float64, nextCount int) int {
	norm := (pred - r.lo[level]) / (r.hi[level] - r.lo[level])
	idx := int(norm * float64(nextCount))
	if idx < 0 {
		idx = 0
	}
	if idx >= nextCount {
		idx = nextCount - 1
	}
	return idx
}

// predictAtLevel evaluates the log-space output of one specific model.
func (r *RMI) predictAtLevel(level, model int, x []float64, t float64) float64 {
	sub := &rmiSingle{embed: r.embed, ffn: r.levels[level][model].ffn}
	tp := autodiff.NewTape()
	xn := tp.Input(tensor.RowVector(x))
	tn := tp.Input(tensor.FromRows([][]float64{{t}}))
	return sub.forwardLog(tp, xn, tn).Scalar()
}

// Estimate routes through the hierarchy and returns the leaf model's
// prediction mapped back to selectivity space. Untrained leaves fall back
// to the deepest trained ancestor's prediction.
func (r *RMI) Estimate(x []float64, t float64) float64 {
	model := 0
	z := r.predictAtLevel(0, 0, x, t)
	for li := 0; li+1 < len(r.levels); li++ {
		next := r.route(li, z, len(r.levels[li+1]))
		if !r.levels[li+1][next].trained {
			break
		}
		model = next
		z = r.predictAtLevel(li+1, model, x, t)
	}
	v := math.Exp(z) - logEps
	if v < 0 {
		return 0
	}
	return v
}

// Name returns the paper's model name.
func (r *RMI) Name() string { return "RMI" }
