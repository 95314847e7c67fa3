// Package selnet implements the paper's primary contribution: a
// consistent, query-dependent piece-wise linear selectivity estimator
// (Sec. 5). The estimator fˆ(x, t, D; Θ) is a continuous piece-wise
// linear function of the threshold t whose L+2 control points
// Θ = {(τ_i, p_i)} are generated per query by neural networks:
//
//   - an autoencoder produces a latent representation z_x of the query,
//     and the enhanced input [x; z_x] feeds the generators (Sec. 5.2);
//   - τ increments come from an FFN through the Norml2 normalized-square
//     transform scaled by t_max, so the τ_i are non-decreasing and end
//     exactly at t_max;
//   - p increments come from Model M — an encoder producing L+2 embedding
//     blocks and a per-block linear decoder with ReLU — so the p_i are
//     non-decreasing (Lemma 1 gives consistency by construction);
//   - the training objective is the Huber loss on log selectivities plus
//     λ times the autoencoder reconstruction loss (Eq. 2 and 4).
//
// The package also provides the ablations of Sec. 7.4 (SelNet-ct without
// partitioning, SelNet-ad-ct without query-dependent τ), the partitioned
// estimator of Sec. 5.3, the incremental-update procedure of Sec. 5.4,
// and the standalone curve fitter used in the paper's Figure 3.
package selnet

import (
	"fmt"
	"math"
	"math/rand"

	"selnet/internal/autodiff"
	"selnet/internal/nn"
	"selnet/internal/tensor"
)

// Config defines the SelNet architecture. Comments give the paper's
// values (Appendix B.2); defaults are scaled for the synthetic datasets.
type Config struct {
	// L is the number of interior control points (paper: 50).
	L int
	// EmbedDim is the width |h_i| of Model M's per-point embeddings
	// (paper: 100).
	EmbedDim int
	// AEHidden and AELatent size the autoencoder (paper: three hidden
	// layers per half).
	AEHidden []int
	AELatent int
	// TauHidden sizes the τ generator FFN (paper: two hidden layers).
	TauHidden []int
	// MHidden sizes Model M's encoder FFN (paper: four hidden layers).
	MHidden []int
	// TMax is the largest supported threshold; τ_{L+1} = TMax.
	TMax float64
	// Lambda weights the autoencoder loss in the objective (Eq. 4).
	Lambda float64
	// QueryDependentTau disables the SelNet-ad-ct ablation when true: if
	// false, the τ generator receives a constant vector instead of
	// [x; z_x], so every query shares the same τ (Sec. 7.4).
	QueryDependentTau bool
	// NormEps is the ε of Norml2 and of threshold padding.
	NormEps float64
	// SoftmaxTau replaces Norml2 with a softmax when generating the τ
	// increments — the alternative Sec. 5.2 argues against (its
	// exponential makes the output hypersensitive to small input
	// changes). Kept as an ablation switch.
	SoftmaxTau bool
}

// DefaultConfig returns an architecture scaled to the synthetic
// experiments; TMax must still be set from the workload.
func DefaultConfig() Config {
	return Config{
		L:                 20,
		EmbedDim:          16,
		AEHidden:          []int{48, 32},
		AELatent:          8,
		TauHidden:         []int{48, 48},
		MHidden:           []int{64, 64, 48},
		Lambda:            0.1,
		QueryDependentTau: true,
		NormEps:           1e-6,
	}
}

// TrainConfig holds optimization settings.
type TrainConfig struct {
	Epochs     int
	Batch      int
	LR         float64
	HuberDelta float64 // paper: 1.345
	LogEps     float64 // padding inside the log loss
	Seed       int64
	// EvalEvery snapshots the best-validation parameters every this many
	// epochs (0 disables).
	EvalEvery int
	// AEPretrainEpochs pretrains the autoencoder on database objects
	// before estimator training (Sec. 5.2).
	AEPretrainEpochs int
	// AEPretrainSample bounds how many database vectors are used for
	// pretraining.
	AEPretrainSample int
	// Loss selects the estimation loss (default LossHuberLog; see the
	// Sec. 5.1 discussion and the loss ablation bench).
	Loss LossKind
}

// DefaultTrainConfig returns the harness defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 60, Batch: 128, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3,
		Seed: 1, EvalEvery: 5, AEPretrainEpochs: 30, AEPretrainSample: 2000,
	}
}

// Net is a single (unpartitioned) SelNet model — the SelNet-ct ablation,
// and the local-model building block of the partitioned estimator.
type Net struct {
	cfg Config
	dim int

	ae     *nn.Autoencoder
	tauNet *nn.FFN   // [x; z] -> L+1 raw increments
	mEnc   *nn.FFN   // [x; z] -> (L+2)*EmbedDim block embeddings
	mDecW  *nn.Param // (L+2) x EmbedDim per-block decoder weights
	mDecB  *nn.Param // 1 x (L+2) per-block decoder biases

	name  string
	plans planCache // compiled inference plans, built lazily (plan.go)
}

// NewNet builds a SelNet for dim-dimensional queries. cfg.TMax must be
// positive.
func NewNet(rng *rand.Rand, dim int, cfg Config) *Net {
	return NewNetWithAE(rng, dim, cfg, nn.NewAutoencoder(rng, dim, cfg.AEHidden, cfg.AELatent))
}

// NewNetWithAE builds a SelNet around an existing (possibly shared)
// autoencoder. The partitioned estimator of Sec. 5.3 uses this: "all
// local models share the same transformed input representation [x; z_x],
// but each has its own neural networks to learn the control parameters".
func NewNetWithAE(rng *rand.Rand, dim int, cfg Config, ae *nn.Autoencoder) *Net {
	if cfg.TMax <= 0 {
		panic("selnet: Config.TMax must be positive")
	}
	if cfg.L < 1 {
		panic("selnet: Config.L must be at least 1")
	}
	in := dim + cfg.AELatent
	tauSizes := append(append([]int{in}, cfg.TauHidden...), cfg.L+1)
	mSizes := append(append([]int{in}, cfg.MHidden...), (cfg.L+2)*cfg.EmbedDim)
	n := &Net{
		cfg:    cfg,
		dim:    dim,
		ae:     ae,
		tauNet: nn.NewFFN(rng, "selnet.tau", tauSizes, nn.ActReLU, nn.ActNone),
		mEnc:   nn.NewFFN(rng, "selnet.menc", mSizes, nn.ActReLU, nn.ActNone),
		mDecW:  nn.NewParam("selnet.mdecW", cfg.L+2, cfg.EmbedDim),
		mDecB:  nn.NewParam("selnet.mdecB", 1, cfg.L+2),
		name:   "SelNet-ct",
	}
	nn.XavierInit(rng, n.mDecW.Value, cfg.EmbedDim, 1)
	if !cfg.QueryDependentTau {
		n.name = "SelNet-ad-ct"
	}
	return n
}

// Params returns every trainable tensor of the model, including the
// autoencoder's.
func (n *Net) Params() []*nn.Param {
	return append(append([]*nn.Param{}, n.ae.Params()...), n.HeadParams()...)
}

// HeadParams returns the control-point generator parameters only
// (excluding the autoencoder); the partitioned model uses this to avoid
// double-counting a shared autoencoder.
func (n *Net) HeadParams() []*nn.Param {
	ps := append([]*nn.Param{}, n.tauNet.Params()...)
	ps = append(ps, n.mEnc.Params()...)
	ps = append(ps, n.mDecW, n.mDecB)
	return ps
}

// Dim returns the query dimensionality.
func (n *Net) Dim() int { return n.dim }

// TMax returns the maximum supported threshold.
func (n *Net) TMax() float64 { return n.cfg.TMax }

// controlPoints builds the τ and p control-point nodes for a batch of
// queries (the network of Figure 1). The returned aeLoss is the
// reconstruction loss node for the same batch.
func (n *Net) controlPoints(tp *autodiff.Tape, x *autodiff.Node) (tau, p, aeLoss *autodiff.Node) {
	aeLoss, z := n.ae.ReconstructionLoss(tp, x)
	enhanced := tp.ConcatCols(x, z)
	tau, p = n.controlPointsFromEnhanced(tp, enhanced)
	return tau, p, aeLoss
}

// controlPointsInference is the estimation-time variant: it runs only the
// autoencoder's encoder (the decoder exists solely for the training loss),
// roughly halving the autoencoder cost per estimate.
func (n *Net) controlPointsInference(tp *autodiff.Tape, x *autodiff.Node) (tau, p *autodiff.Node) {
	z := n.ae.Encode(tp, x)
	return n.controlPointsFromEnhanced(tp, tp.ConcatCols(x, z))
}

// controlPointsFromEnhanced builds (τ, p) from a precomputed enhanced
// input [x; z_x]; the partitioned model shares one enhanced batch across
// all local heads.
func (n *Net) controlPointsFromEnhanced(tp *autodiff.Tape, enhanced *autodiff.Node) (tau, p *autodiff.Node) {
	// τ generator. For SelNet-ad-ct the generator sees a constant vector,
	// making τ identical across queries (Sec. 7.4).
	tauIn := enhanced
	if !n.cfg.QueryDependentTau {
		ones := tensor.New(enhanced.Rows(), n.dim+n.cfg.AELatent)
		ones.Fill(1)
		tauIn = tp.Input(ones)
	}
	rawTau := n.tauNet.Apply(tp, tauIn)
	var deltaTau *autodiff.Node
	if n.cfg.SoftmaxTau {
		deltaTau = tp.Scale(tp.Softmax(rawTau), n.cfg.TMax)
	} else {
		deltaTau = tp.Scale(tp.Norml2(rawTau, n.cfg.NormEps), n.cfg.TMax)
	}
	interior := tp.PrefixSumCols(deltaTau) // B x (L+1), last column = TMax exactly
	zeros := tp.Input(tensor.New(enhanced.Rows(), 1))
	tau = tp.ConcatCols(zeros, interior) // B x (L+2), τ_0 = 0

	// Model M: encoder to (L+2) embedding blocks, per-block linear + ReLU
	// decoder produces non-negative increments k_i, prefix-summed into p.
	emb := n.mEnc.Apply(tp, enhanced)
	k := tp.ReLU(tp.BlockLinear(emb, n.mDecW.Node(tp), n.mDecB.Node(tp), n.cfg.L+2, n.cfg.EmbedDim))
	p = tp.PrefixSumCols(k)
	return tau, p
}

// forward estimates selectivities for a batch: x is batch x dim, t is
// batch x 1 (as tape inputs); it returns (yhat, aeLoss) nodes.
func (n *Net) forward(tp *autodiff.Tape, x, t *autodiff.Node) (yhat, aeLoss *autodiff.Node) {
	tau, p, aeLoss := n.controlPoints(tp, x)
	return tp.PWLInterp(tau, p, t), aeLoss
}

// Estimate returns the estimated selectivity for a single query. The
// threshold is clamped into [0, TMax]; Lemma 1 guarantees the result is
// non-decreasing in t. It is a one-row EstimateBatchInto, so a NaN
// threshold estimates 0.
//
// Estimate, EstimateBatch and ControlPoints are safe for concurrent use:
// each call checks compiled plans out of the model's pools (plan.go) and
// only reads the shared parameter tensors. They must not run
// concurrently with Fit or Update, which mutate the parameters in place
// — the serving layer (internal/serve) gets this isolation by
// hot-swapping whole models instead of retraining live ones. Steady
// state performs zero heap allocations.
func (n *Net) Estimate(x []float64, t float64) float64 {
	return n.planState().estimate(x, t)
}

// EstimateBatch estimates selectivities for several (query, threshold)
// pairs at once; x is rows x dim and ts has one threshold per row. The
// allocation-free variant is EstimateBatchInto.
func (n *Net) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	if x.Rows() != len(ts) {
		panic(fmt.Sprintf("selnet: %d query rows but %d thresholds", x.Rows(), len(ts)))
	}
	out := make([]float64, len(ts))
	n.EstimateBatchInto(out, x, ts)
	return out
}

// ControlPoints returns the learned (τ, p) vectors for one query — the
// data plotted in the paper's Figure 4.
func (n *Net) ControlPoints(x []float64) (tau, p []float64) {
	if len(x) != n.dim {
		panic(fmt.Sprintf("selnet: query has dim %d, model expects %d", len(x), n.dim))
	}
	ps := n.planState()
	enc, head := ps.enc.Get(1), ps.heads[0].Get(1)
	copy(enc.X.Row(0), x)
	enc.Run()
	copy(head.X.Row(0), enc.Out.Row(0))
	head.Run()
	tau = append([]float64(nil), head.Tau.Row(0)...)
	p = append([]float64(nil), head.P.Row(0)...)
	ps.heads[0].Put(head)
	ps.enc.Put(enc)
	return tau, p
}

// Name returns the model's display name ("SelNet-ct" or "SelNet-ad-ct").
func (n *Net) Name() string { return n.name }

// ConsistencyGuaranteed reports that monotonicity holds by construction.
func (n *Net) ConsistencyGuaranteed() bool { return true }

func clamp(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}
