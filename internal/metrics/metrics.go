// Package metrics implements the paper's evaluation measures: MSE, MAE and
// MAPE (Appendix B.3), the empirical monotonicity score of Table 5,
// estimation-time measurement for Table 7, and the VC sampling bound the
// router and the shadow oracle size samples by. It scores any
// estimator.Model.
package metrics

import (
	"math"
	"math/rand"
	"time"

	"selnet/internal/estimator"
	"selnet/internal/vecdata"
)

// Errors aggregates the paper's three error measures.
type Errors struct {
	MSE  float64
	MAE  float64
	MAPE float64
}

// MSE returns the mean squared error between predictions and labels.
func MSE(pred, label []float64) float64 {
	checkLen(pred, label)
	var s float64
	for i, p := range pred {
		d := p - label[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MAE returns the mean absolute error.
func MAE(pred, label []float64) float64 {
	checkLen(pred, label)
	var s float64
	for i, p := range pred {
		s += math.Abs(p - label[i])
	}
	return s / float64(len(pred))
}

// MAPE returns the mean absolute percentage error |ŷ-y|/y. Labels of zero
// are skipped (the paper's workloads have y >= 1).
func MAPE(pred, label []float64) float64 {
	checkLen(pred, label)
	var s float64
	var n int
	for i, p := range pred {
		if label[i] == 0 {
			continue
		}
		s += math.Abs(p-label[i]) / label[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

func checkLen(pred, label []float64) {
	if len(pred) != len(label) {
		panic("metrics: prediction/label length mismatch")
	}
}

// Predict runs the estimator over the queries and returns predictions and
// labels as parallel slices.
func Predict(est estimator.Model, queries []vecdata.Query) (pred, label []float64) {
	pred = make([]float64, len(queries))
	label = make([]float64, len(queries))
	for i, q := range queries {
		pred[i] = est.Estimate(q.X, q.T)
		label[i] = q.Y
	}
	return pred, label
}

// Evaluate computes all three error measures of the estimator on queries.
func Evaluate(est estimator.Model, queries []vecdata.Query) Errors {
	pred, label := Predict(est, queries)
	return Errors{MSE: MSE(pred, label), MAE: MAE(pred, label), MAPE: MAPE(pred, label)}
}

// EmpiricalMonotonicity reproduces the Table 5 measure: for numQueries
// query vectors, numThresholds thresholds are sampled uniformly in
// [0, tMax]; among all ordered threshold pairs (t < t'), the score is the
// percentage with Estimate(x,t) <= Estimate(x,t'). 100 means perfectly
// consistent.
func EmpiricalMonotonicity(rng *rand.Rand, est estimator.Model, queryVecs [][]float64, numQueries, numThresholds int, tMax float64) float64 {
	if numQueries > len(queryVecs) {
		numQueries = len(queryVecs)
	}
	idx := rng.Perm(len(queryVecs))[:numQueries]
	var ok, total int64
	for _, qi := range idx {
		x := queryVecs[qi]
		ts := make([]float64, numThresholds)
		for j := range ts {
			ts[j] = rng.Float64() * tMax
		}
		est := estimates(est, x, ts)
		for a := 0; a < numThresholds; a++ {
			for b := a + 1; b < numThresholds; b++ {
				total++
				ta, tb := ts[a], ts[b]
				ea, eb := est[a], est[b]
				if ta > tb {
					ta, tb = tb, ta
					ea, eb = eb, ea
				}
				if ea <= eb+1e-9 {
					ok++
				}
			}
		}
	}
	if total == 0 {
		return 100
	}
	return 100 * float64(ok) / float64(total)
}

func estimates(est estimator.Model, x []float64, ts []float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = est.Estimate(x, t)
	}
	return out
}

// AvgEstimationTime measures the mean wall-clock time per Estimate call
// over the queries (Table 7), in milliseconds.
func AvgEstimationTime(est estimator.Model, queries []vecdata.Query) float64 {
	if len(queries) == 0 {
		return 0
	}
	start := time.Now()
	for _, q := range queries {
		est.Estimate(q.X, q.T)
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / 1e6 / float64(len(queries))
}

// VCSampleSize is the sample size that estimates every range count of a
// range space of VC dimension vc within eps*|D| with probability
// 1-delta ("The VC-Dimension of Queries and Selectivity Estimation
// Through Sampling"): m = ceil((vc + ln(1/delta)) / (2 eps^2)).
// Distance-threshold queries over R^d are balls, VC dimension d+1.
func VCSampleSize(eps, delta float64, vc int) int {
	return int(math.Ceil(0.5 / (eps * eps) * (float64(vc) + math.Log(1/delta))))
}
