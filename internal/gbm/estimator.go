package gbm

import (
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// logEps is the padding constant applied before taking logarithms of
// selectivities, matching the paper's loss definition.
const logEps = 1e-3

// SelectivityEstimator adapts a GBDT to the selectivity-estimation
// interface: the feature row is the query vector with the threshold
// appended as the last feature (as in Appendix B.2, where tree models
// receive t directly). With Monotonic set, the threshold feature carries
// an increasing constraint — the paper's LightGBM-m.
type SelectivityEstimator struct {
	model     *Model
	dim       int
	monotonic bool
	tmax      float64
}

// FitSelectivity trains on labelled queries. cfg.Monotone is overwritten
// to match the monotonic flag (constraint on the threshold feature only).
func FitSelectivity(cfg Config, train []vecdata.Query, monotonic bool) *SelectivityEstimator {
	if len(train) == 0 {
		panic("gbm: no training queries")
	}
	dim := len(train[0].X)
	cfg.Monotone = make([]int8, dim+1)
	if monotonic {
		cfg.Monotone[dim] = 1
	}
	x := make([][]float64, len(train))
	y := make([]float64, len(train))
	var tmax float64
	for i, q := range train {
		x[i] = featureRow(q.X, q.T)
		y[i] = q.Y
		if q.T > tmax {
			tmax = q.T
		}
	}
	if tmax == 0 {
		tmax = 1
	}
	return &SelectivityEstimator{
		model:     Train(cfg, x, y, logEps),
		dim:       dim,
		monotonic: monotonic,
		tmax:      tmax,
	}
}

func featureRow(x []float64, t float64) []float64 {
	row := make([]float64, len(x)+1)
	copy(row, x)
	row[len(x)] = t
	return row
}

// Estimate returns the predicted selectivity for (x, t).
func (e *SelectivityEstimator) Estimate(x []float64, t float64) float64 {
	return e.model.Predict(featureRow(x, t), logEps)
}

// EstimateBatch evaluates one query per row of x against the matching
// threshold in ts. Safe for concurrent use: trees are read-only after
// training.
func (e *SelectivityEstimator) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	out := make([]float64, x.Rows())
	row := make([]float64, e.dim+1)
	for i := range out {
		copy(row, x.Row(i))
		row[e.dim] = ts[i]
		out[i] = e.model.Predict(row, logEps)
	}
	return out
}

// Dim returns the query dimensionality (without the threshold feature).
func (e *SelectivityEstimator) Dim() int { return e.dim }

// TMax returns the largest threshold seen during training — tree splits
// beyond it are extrapolation.
func (e *SelectivityEstimator) TMax() float64 { return e.tmax }

// Name returns the paper's model name.
func (e *SelectivityEstimator) Name() string {
	if e.monotonic {
		return "LightGBM-m"
	}
	return "LightGBM"
}

// ConsistencyGuaranteed reports whether the monotone constraint is active.
func (e *SelectivityEstimator) ConsistencyGuaranteed() bool { return e.monotonic }
