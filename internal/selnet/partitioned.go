package selnet

import (
	"fmt"
	"math"
	"math/rand"

	"selnet/internal/autodiff"
	"selnet/internal/distance"
	"selnet/internal/nn"
	"selnet/internal/partition"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// PartitionedConfig configures the full SelNet of Sec. 5.3: the database
// is split into K clusters, one local model is trained per cluster, and
// the global estimate is the indicator-gated sum of local estimates.
type PartitionedConfig struct {
	Model Config
	// K is the number of clusters (paper default: 3).
	K int
	// Ratio is the cover-tree expansion bound r (subtrees with fewer than
	// Ratio*|D| points are not expanded).
	Ratio float64
	// Method selects the partitioning strategy (Table 10).
	Method partition.Method
	// Beta weights the local losses in the joint objective (paper: 0.1).
	Beta float64
	// PretrainEpochs is T, the per-local pretraining budget before joint
	// training (paper: 300; scaled here).
	PretrainEpochs int
}

// DefaultPartitionedConfig mirrors the paper's defaults at harness scale.
func DefaultPartitionedConfig() PartitionedConfig {
	return PartitionedConfig{
		Model:          DefaultConfig(),
		K:              3,
		Ratio:          0.1,
		Method:         partition.CoverTree,
		Beta:           0.1,
		PretrainEpochs: 10,
	}
}

// Partitioned is the full SelNet estimator fˆ* = Σ_i f_c(x,t)[i]·fˆ(i).
type Partitioned struct {
	pcfg PartitionedConfig
	dim  int
	dist distance.Func

	ae     *nn.Autoencoder
	locals []*Net
	part   *partition.Partitioning
	// clusterVecs holds each cluster's member vectors (owned copies), so
	// local ground truth stays computable across database updates.
	clusterVecs [][][]float64

	plans planCache // compiled inference plans, built lazily (plan.go)
}

// NewPartitioned builds the partitioned estimator over db's current
// contents. Model networks are initialized; call Fit to train.
func NewPartitioned(rng *rand.Rand, db *vecdata.Database, pcfg PartitionedConfig) *Partitioned {
	part := partition.Build(rng, db, pcfg.K, pcfg.Ratio, pcfg.Method)
	ae := nn.NewAutoencoder(rng, db.Dim, pcfg.Model.AEHidden, pcfg.Model.AELatent)
	p := &Partitioned{
		pcfg: pcfg,
		dim:  db.Dim,
		dist: db.Dist,
		ae:   ae,
		part: part,
	}
	for ci, cluster := range part.Clusters {
		p.locals = append(p.locals, NewNetWithAE(rng, db.Dim, pcfg.Model, ae))
		vecs := make([][]float64, 0, len(cluster.Members))
		for _, m := range cluster.Members {
			vecs = append(vecs, append([]float64(nil), db.Vecs[m]...))
		}
		p.clusterVecs = append(p.clusterVecs, vecs)
		_ = ci
	}
	return p
}

// K returns the number of clusters actually built.
func (p *Partitioned) K() int { return len(p.locals) }

// PartitionOf attributes a query to the cluster that owns it (see
// partition.PrimaryRegion); -1 when the partitioning carries no
// geometry (random method). The serving layer's shadow scorer uses
// this to break q-errors down by region.
func (p *Partitioned) PartitionOf(x []float64, t float64) int {
	return p.part.PrimaryRegion(x, t)
}

// Dim returns the query dimensionality.
func (p *Partitioned) Dim() int { return p.dim }

// TMax returns the maximum supported threshold.
func (p *Partitioned) TMax() float64 { return p.pcfg.Model.TMax }

// localLabel computes the exact selectivity of (x, t) within cluster ci.
func (p *Partitioned) localLabel(ci int, x []float64, t float64) float64 {
	var count float64
	for _, v := range p.clusterVecs[ci] {
		if p.dist.Distance(x, v) <= t {
			count++
		}
	}
	return count
}

// localQueries rewrites a query set with cluster-local labels.
func (p *Partitioned) localQueries(ci int, queries []vecdata.Query) []vecdata.Query {
	out := make([]vecdata.Query, len(queries))
	for i, q := range queries {
		out[i] = vecdata.Query{X: q.X, T: q.T, Y: p.localLabel(ci, q.X, q.T)}
	}
	return out
}

// Params returns the shared autoencoder parameters once plus every local
// head's parameters.
func (p *Partitioned) Params() []*nn.Param {
	ps := append([]*nn.Param{}, p.ae.Params()...)
	for _, l := range p.locals {
		ps = append(ps, l.HeadParams()...)
	}
	return ps
}

// Fit trains the partitioned model: AE pretraining, T epochs of local
// pretraining per cluster, then joint training with the Sec. 5.3 loss
//
//	J_joint = J_est(fˆ*) + β·Σ_i J_est(fˆ(i)) + λ·J_AE,
//
// with the indicators f_c precomputed for all training queries.
func (p *Partitioned) Fit(tc TrainConfig, db *vecdata.Database, train, valid []vecdata.Query) {
	if len(train) == 0 {
		panic("selnet: no training queries")
	}
	// Training mutates parameters; drop compiled plans so post-training
	// inference recompiles against the settled weights.
	p.DropPlans()
	rng := rand.New(rand.NewSource(tc.Seed))
	p.locals[0].pretrainAE(rng, tc, db)
	js := p.newJointSet(train)

	// Stage 1: local pretraining on cluster-local labels.
	for ci, l := range p.locals {
		if p.pcfg.PretrainEpochs > 0 {
			ltc := tc
			ltc.Epochs = p.pcfg.PretrainEpochs
			ltc.EvalEvery = 0
			ltc.AEPretrainEpochs = 0 // already done
			ltc.Seed = tc.Seed + int64(ci+1)
			l.Fit(ltc, nil, js.local[ci], nil)
		}
	}

	// Stage 2: joint training.
	opt := nn.NewAdam(tc.LR)
	idx := identity(len(train))
	fitEpochs(p, tc, valid, func(int) { p.jointEpoch(tc, rng, opt, js, idx) })
}

// jointSet is a query set prepared for the joint objective: each
// cluster's locally labelled copy, the global matrices, and the
// indicators f_c.
type jointSet struct {
	local              [][]vecdata.Query
	x, t, y            *tensor.Dense
	localY, indicators []*tensor.Dense
}

// newJointSet prepares queries, labelled against the whole database,
// for the joint objective.
func (p *Partitioned) newJointSet(queries []vecdata.Query) *jointSet {
	js := &jointSet{local: make([][]vecdata.Query, p.K()), localY: make([]*tensor.Dense, p.K())}
	for ci := range p.locals {
		js.local[ci] = p.localQueries(ci, queries)
		_, _, js.localY[ci] = vecdata.Matrices(js.local[ci])
	}
	js.x, js.t, js.y = vecdata.Matrices(queries)
	js.indicators = p.indicatorMatrix(queries)
	return js
}

// jointEpoch runs one epoch of the joint objective over js: a shuffle of
// idx by rng, then one opt step per mini-batch.
func (p *Partitioned) jointEpoch(tc TrainConfig, rng *rand.Rand, opt *nn.Adam, js *jointSet, idx []int) {
	shuffledBatches(rng, idx, tc.Batch, func(b []int) {
		tp := autodiff.NewTape()
		xb := tp.Input(tensor.GatherRows(js.x, b))
		tb := tp.Input(tensor.GatherRows(js.t, b))
		yb := tp.Input(tensor.GatherRows(js.y, b))
		aeLoss, z := p.ae.ReconstructionLoss(tp, xb)
		enhanced := tp.ConcatCols(xb, z)
		var global *autodiff.Node
		loss := tp.Scale(aeLoss, p.pcfg.Model.Lambda)
		for ci, l := range p.locals {
			tau, pp := l.controlPointsFromEnhanced(tp, enhanced)
			yhat := tp.PWLInterp(tau, pp, tb)
			lyb := tp.Input(tensor.GatherRows(js.localY[ci], b))
			loss = tp.Add(loss, tp.Scale(estLoss(tp, tc, yhat, lyb), p.pcfg.Beta))
			gated := tp.Mul(yhat, tp.Input(tensor.GatherRows(js.indicators[ci], b)))
			if global == nil {
				global = gated
			} else {
				global = tp.Add(global, gated)
			}
		}
		loss = tp.Add(loss, estLoss(tp, tc, global, yb))
		tp.Backward(loss)
		opt.Step(p.Params())
	})
}

// indicatorMatrix precomputes f_c for every query, one column vector per
// cluster.
func (p *Partitioned) indicatorMatrix(queries []vecdata.Query) []*tensor.Dense {
	out := make([]*tensor.Dense, p.K())
	for ci := range out {
		out[ci] = tensor.New(len(queries), 1)
	}
	ind := make([]bool, p.K())
	qbuf := make([]float64, p.dim)
	for qi, q := range queries {
		p.part.IndicatorInto(ind, qbuf, q.X, q.T)
		for ci, active := range ind {
			if active {
				out[ci].Set(qi, 0, 1)
			}
		}
	}
	return out
}

// Estimate returns fˆ*(x, t): the sum of active local estimates. Each
// local estimate is non-negative and monotone in t, and the active set
// only grows with t, so the global estimate is consistent. It is a
// one-row EstimateBatchInto on compiled plans (plan.go): one encoder
// plan computes the shared enhanced input, then each active cluster's
// head plan produces its control points. Zero heap allocations at steady
// state.
func (p *Partitioned) Estimate(x []float64, t float64) float64 {
	return p.planState().estimate(x, t)
}

// EstimateBatch estimates selectivities for several (query, threshold)
// pairs at once, matching row-by-row Estimate exactly. Each local head
// whose region is active for at least one row runs a single batched
// head-plan pass over those rows' distinct vectors (gather, not mask),
// so per-head cost scales with active distinct vectors rather than
// cluster count times batch size. The region indicator is monotone in
// t, so a threshold ladder is scanned once, at its largest threshold,
// and a row's own gate is tested only where its head's value is
// positive and no larger threshold of the ladder has yet been proven
// active (see plans.run). Like Net.EstimateBatch it is read-only
// on the parameters and safe for concurrent use (but not concurrently
// with Fit/HandleUpdate). The allocation-free variant is
// EstimateBatchInto.
func (p *Partitioned) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	if x.Rows() != len(ts) {
		panic(fmt.Sprintf("selnet: %d query rows but %d thresholds", x.Rows(), len(ts)))
	}
	out := make([]float64, len(ts))
	p.EstimateBatchInto(out, x, ts)
	return out
}

// Loss computes the global estimation loss on a query set.
func (p *Partitioned) Loss(tc TrainConfig, queries []vecdata.Query) float64 {
	pred := make([]float64, len(queries))
	for i, q := range queries {
		pred[i] = p.Estimate(q.X, q.T)
	}
	var total float64
	for i, q := range queries {
		r := math.Log(q.Y+tc.LogEps) - math.Log(pred[i]+tc.LogEps)
		if math.Abs(r) <= tc.HuberDelta {
			total += r * r / 2
		} else {
			total += tc.HuberDelta * (math.Abs(r) - tc.HuberDelta/2)
		}
	}
	return total / float64(len(queries))
}

// MAE computes the mean absolute error on a query set.
func (p *Partitioned) MAE(queries []vecdata.Query) float64 { return mae(p, queries) }

// Name returns the paper's model name for the full estimator.
func (p *Partitioned) Name() string { return "SelNet" }

// ConsistencyGuaranteed reports that monotonicity holds by construction.
func (p *Partitioned) ConsistencyGuaranteed() bool { return true }

// ApplyInsert registers newly inserted vectors: each is assigned to the
// cluster with the nearest region ball, whose radius grows if necessary so
// the indicator stays sound.
func (p *Partitioned) ApplyInsert(vecs [][]float64) {
	for _, v := range vecs {
		space := v
		if p.dist == distance.Cosine {
			space = distance.Normalize(v)
		}
		bestC, bestB, bestD := 0, 0, math.Inf(1)
		for ci, cluster := range p.part.Clusters {
			for bi, ball := range cluster.Balls {
				d := distance.L2(space, ball.Center)
				if d < bestD {
					bestC, bestB, bestD = ci, bi, d
				}
			}
			if len(cluster.Balls) == 0 && bestD == math.Inf(1) {
				bestC, bestB = ci, -1
			}
		}
		p.clusterVecs[bestC] = append(p.clusterVecs[bestC], append([]float64(nil), v...))
		if bestB >= 0 && bestD > p.part.Clusters[bestC].Balls[bestB].Radius {
			p.part.Clusters[bestC].Balls[bestB].Radius = bestD
		}
	}
}

// ApplyDelete removes vectors (matched by value) from their clusters.
// Vectors not found are ignored.
func (p *Partitioned) ApplyDelete(vecs [][]float64) {
	for _, v := range vecs {
		for ci := range p.clusterVecs {
			found := -1
			for i, cv := range p.clusterVecs[ci] {
				if vecEqual(cv, v) {
					found = i
					break
				}
			}
			if found >= 0 {
				last := len(p.clusterVecs[ci]) - 1
				p.clusterVecs[ci][found] = p.clusterVecs[ci][last]
				p.clusterVecs[ci] = p.clusterVecs[ci][:last]
				break
			}
		}
	}
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// ClusterSizes returns the current number of vectors per cluster.
func (p *Partitioned) ClusterSizes() []int {
	sizes := make([]int, p.K())
	for i, vs := range p.clusterVecs {
		sizes[i] = len(vs)
	}
	return sizes
}
