// Package kde implements the adaptive kernel-density-estimation baseline
// (Mattig et al., "Kernel-based cardinality estimation on metric data",
// EDBT 2018 — reference [24] of the paper). The method sidesteps the curse
// of dimensionality by modelling the *distance distribution* instead of
// the vector distribution: selectivity of (x, t) is estimated from a
// sample of database objects as
//
//	yhat(x, t) = (n/m) * sum_i Phi((t - d(x, o_i)) / h_i)
//
// where Phi is the standard normal CDF and h_i is a per-sample adaptive
// bandwidth derived from the sample's local density (distance to its k-th
// nearest neighbour within the sample). Because Phi is non-decreasing in
// t, the estimator is consistent, which is why the paper marks KDE with *.
package kde

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"selnet/internal/distance"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// Config holds KDE hyper-parameters.
type Config struct {
	// SampleSize is the number of database objects kept as kernel centers
	// (the paper uses 2000).
	SampleSize int
	// BandwidthK is the neighbour rank used for the adaptive bandwidth.
	BandwidthK int
	// MinBandwidth floors the bandwidth to avoid degenerate spikes.
	MinBandwidth float64
}

// DefaultConfig mirrors the paper's setup with a sane adaptive-bandwidth
// neighbourhood.
func DefaultConfig() Config {
	return Config{SampleSize: 2000, BandwidthK: 8, MinBandwidth: 1e-4}
}

// Estimator is a fitted KDE model. It is self-contained once fitted
// (the kernel sample is copied out of the database), so it can be
// serialized, served, and hot-swapped without holding the database.
type Estimator struct {
	dist      distance.Func
	dim       int
	n         int // database size at fit time (numerator of scale)
	samples   [][]float64
	bandwidth []float64
	scale     float64 // n/m
	tmax      float64 // largest answerable threshold (see TMax)
}

// Fit draws the kernel sample and computes adaptive bandwidths.
func Fit(rng *rand.Rand, db *vecdata.Database, cfg Config) *Estimator {
	m := cfg.SampleSize
	if m > db.Size() {
		m = db.Size()
	}
	if m < 1 {
		m = 1
	}
	idx := rng.Perm(db.Size())[:m]
	samples := make([][]float64, m)
	for i, id := range idx {
		samples[i] = append([]float64(nil), db.Vecs[id]...)
	}
	k := cfg.BandwidthK
	if k >= m {
		k = m - 1
	}
	if k < 1 {
		k = 1
	}
	bw := make([]float64, m)
	var maxDist float64
	for i := range samples {
		// Adaptive bandwidth: distance to the k-th nearest other sample,
		// i.e. wide kernels in sparse regions, narrow in dense ones.
		dists := make([]float64, 0, m-1)
		for j := range samples {
			if i == j {
				continue
			}
			d := db.Dist.Distance(samples[i], samples[j])
			if d > maxDist {
				maxDist = d
			}
			dists = append(dists, d)
		}
		bw[i] = math.Max(kthSmallest(dists, k), cfg.MinBandwidth)
	}
	if maxDist == 0 {
		maxDist = 1
	}
	return &Estimator{
		dist:      db.Dist,
		dim:       db.Dim,
		n:         db.Size(),
		samples:   samples,
		bandwidth: bw,
		scale:     float64(db.Size()) / float64(m),
		tmax:      maxDist,
	}
}

// FitTuned fits the KDE and then tunes a global bandwidth multiplier on
// labelled training queries, mirroring the self-tuning bandwidth
// optimization of the KDE selectivity estimators ([15, 24] in the paper):
// the multiplier minimizing the squared log-error over (a subset of) the
// training queries is kept.
func FitTuned(rng *rand.Rand, db *vecdata.Database, cfg Config, train []vecdata.Query) *Estimator {
	e := Fit(rng, db, cfg)
	if len(train) == 0 {
		return e
	}
	sub := train
	const maxTune = 200
	if len(sub) > maxTune {
		idx := rng.Perm(len(sub))[:maxTune]
		picked := make([]vecdata.Query, maxTune)
		for i, id := range idx {
			picked[i] = sub[id]
		}
		sub = picked
	}
	base := append([]float64(nil), e.bandwidth...)
	bestMult, bestScore := 1.0, math.Inf(1)
	for _, mult := range []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1} {
		for i := range e.bandwidth {
			e.bandwidth[i] = math.Max(base[i]*mult, cfg.MinBandwidth)
		}
		var score float64
		for _, q := range sub {
			r := math.Log(q.Y+1) - math.Log(e.Estimate(q.X, q.T)+1)
			score += r * r
		}
		if score < bestScore {
			bestScore = score
			bestMult = mult
		}
	}
	for i := range e.bandwidth {
		e.bandwidth[i] = math.Max(base[i]*bestMult, cfg.MinBandwidth)
	}
	return e
}

// Estimate returns the KDE selectivity estimate for (x, t).
func (e *Estimator) Estimate(x []float64, t float64) float64 {
	var s float64
	for i, o := range e.samples {
		d := e.dist.Distance(x, o)
		s += normalCDF((t - d) / e.bandwidth[i])
	}
	return e.scale * s
}

// EstimateBatch evaluates one query per row of x against the matching
// threshold in ts. Safe for concurrent use: the estimator is read-only
// after Fit.
func (e *Estimator) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	out := make([]float64, x.Rows())
	for i := range out {
		out[i] = e.Estimate(x.Row(i), ts[i])
	}
	return out
}

// Dim returns the vector dimensionality the estimator was fitted on.
func (e *Estimator) Dim() int { return e.dim }

// TMax returns the largest threshold the estimator was fitted to answer:
// the maximum pairwise distance observed within the kernel sample, a
// proxy for the data diameter.
func (e *Estimator) TMax() float64 { return e.tmax }

// DataSize returns the database size at fit time; the serving router
// uses it to decide when VC-style sampling bounds make a sampling-backed
// estimator preferable.
func (e *Estimator) DataSize() int { return e.n }

// Name returns the paper's model name.
func (e *Estimator) Name() string { return "KDE" }

// ConsistencyGuaranteed reports that KDE is monotone in t by construction.
func (e *Estimator) ConsistencyGuaranteed() bool { return true }

// blob is the gob wire form of a fitted estimator.
type blob struct {
	Dist      int
	Dim       int
	N         int
	Samples   [][]float64
	Bandwidth []float64
	Scale     float64
	TMax      float64
}

// Save serializes the fitted estimator to w.
func (e *Estimator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(blob{
		Dist:      int(e.dist),
		Dim:       e.dim,
		N:         e.n,
		Samples:   e.samples,
		Bandwidth: e.bandwidth,
		Scale:     e.scale,
		TMax:      e.tmax,
	})
}

// Load reads an estimator previously written by Save.
func Load(r io.Reader) (*Estimator, error) {
	var b blob
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("kde: decode: %w", err)
	}
	if len(b.Samples) == 0 || len(b.Bandwidth) != len(b.Samples) {
		return nil, fmt.Errorf("kde: corrupt model: %d samples, %d bandwidths", len(b.Samples), len(b.Bandwidth))
	}
	return &Estimator{
		dist:      distance.Func(b.Dist),
		dim:       b.Dim,
		n:         b.N,
		samples:   b.Samples,
		bandwidth: b.Bandwidth,
		scale:     b.Scale,
		tmax:      b.TMax,
	}, nil
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// kthSmallest returns the k-th smallest value (1-indexed) via quickselect.
func kthSmallest(vals []float64, k int) float64 {
	if k < 1 || k > len(vals) {
		panic("kde: k out of range")
	}
	lo, hi := 0, len(vals)-1
	target := k - 1
	for lo < hi {
		p := partition(vals, lo, hi)
		switch {
		case p == target:
			return vals[p]
		case p < target:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return vals[target]
}

func partition(vals []float64, lo, hi int) int {
	// Median-of-three pivot to dodge worst cases on sorted input.
	mid := (lo + hi) / 2
	if vals[mid] < vals[lo] {
		vals[mid], vals[lo] = vals[lo], vals[mid]
	}
	if vals[hi] < vals[lo] {
		vals[hi], vals[lo] = vals[lo], vals[hi]
	}
	if vals[hi] < vals[mid] {
		vals[hi], vals[mid] = vals[mid], vals[hi]
	}
	pivot := vals[mid]
	vals[mid], vals[hi] = vals[hi], vals[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if vals[i] < pivot {
			vals[i], vals[store] = vals[store], vals[i]
			store++
		}
	}
	vals[store], vals[hi] = vals[hi], vals[store]
	return store
}
