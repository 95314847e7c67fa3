// Package lshsampling implements the LSH importance-sampling baseline
// (Wu, Charikar, Natchu, "Local density estimation in high dimensions",
// ICML 2018 — reference [38] of the paper). The method applies only to
// cosine distance because it relies on SimHash.
//
// Every database vector receives a b-bit SimHash signature (signs of
// projections on b random hyperplanes). At query time the database is
// stratified by Hamming distance between each vector's signature and the
// query's; a fixed sample budget is allocated across strata, biased toward
// low Hamming distance — the strata that contain the near neighbours
// responsible for small-selectivity queries. Within each stratum the
// estimate |S_j|/m_j * #matches is unbiased, so the total is an unbiased
// stratified estimator with far lower variance than uniform sampling at
// small thresholds.
//
// For a fixed drawn sample the estimate is a count of fixed distances
// below t, hence non-decreasing in t: the estimator is consistent, as the
// paper's Table 5 reports.
package lshsampling

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"

	"selnet/internal/distance"
	"selnet/internal/estimator"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// Config holds the LSH estimator's hyper-parameters.
type Config struct {
	// Bits is the SimHash signature length (max 64).
	Bits int
	// SampleBudget is the total number of distance evaluations per query
	// (the paper uses 2000 samples).
	SampleBudget int
	// DecayRate biases allocation toward low Hamming strata; stratum j
	// receives weight |S_j| * exp(-DecayRate*j) before normalization.
	DecayRate float64
	// Seed fixes the per-query sampling RNG so repeated estimates for the
	// same query are identical (and monotone in t).
	Seed int64
}

// DefaultConfig mirrors the paper's sample budget.
func DefaultConfig() Config {
	return Config{Bits: 16, SampleBudget: 2000, DecayRate: 0.35, Seed: 1}
}

// Estimator is a built LSH importance sampler.
type Estimator struct {
	cfg        Config
	db         *vecdata.Database
	dim        int
	tmax       float64
	planes     [][]float64 // bits random hyperplanes
	signatures []uint64
}

// Build hashes the database. It returns an error for non-cosine distance
// functions, mirroring the paper ("it only works for the cosine distance
// due to the use of the SimHash technique").
func Build(rng *rand.Rand, db *vecdata.Database, cfg Config) (*Estimator, error) {
	if db.Dist != distance.Cosine {
		return nil, fmt.Errorf("lshsampling: SimHash requires cosine distance, got %v", db.Dist)
	}
	if cfg.Bits < 1 || cfg.Bits > 64 {
		return nil, fmt.Errorf("lshsampling: Bits must be in [1, 64], got %d", cfg.Bits)
	}
	// Cosine distance is bounded by 2, so every threshold is answerable.
	e := &Estimator{cfg: cfg, db: db, dim: db.Dim, tmax: 2}
	e.planes = make([][]float64, cfg.Bits)
	for i := range e.planes {
		p := make([]float64, db.Dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		e.planes[i] = p
	}
	e.signatures = make([]uint64, db.Size())
	for i, v := range db.Vecs {
		e.signatures[i] = e.signature(v)
	}
	return e, nil
}

func (e *Estimator) signature(v []float64) uint64 {
	var sig uint64
	for i, p := range e.planes {
		if distance.Dot(v, p) >= 0 {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// Estimate returns the stratified importance-sampling estimate for (x, t).
func (e *Estimator) Estimate(x []float64, t float64) float64 {
	qsig := e.signature(x)
	// Stratify by Hamming distance.
	strata := make([][]int, e.cfg.Bits+1)
	for i, s := range e.signatures {
		h := bits.OnesCount64(qsig ^ s)
		strata[h] = append(strata[h], i)
	}
	// Allocate the budget: weight_j = |S_j| * exp(-decay*j), at least one
	// sample for every non-empty stratum.
	weights := make([]float64, len(strata))
	var wsum float64
	for j, s := range strata {
		if len(s) == 0 {
			continue
		}
		weights[j] = float64(len(s)) * math.Exp(-e.cfg.DecayRate*float64(j))
		wsum += weights[j]
	}
	if wsum == 0 {
		return 0
	}
	// Deterministic per-query RNG: repeated calls (different t) reuse the
	// same sample, which keeps the estimator consistent in t.
	rng := rand.New(rand.NewSource(e.cfg.Seed ^ int64(qsig*0x9e3779b97f4a7c15)))
	var total float64
	for j, s := range strata {
		if len(s) == 0 {
			continue
		}
		mj := int(math.Round(float64(e.cfg.SampleBudget) * weights[j] / wsum))
		if mj < 1 {
			mj = 1
		}
		if mj > len(s) {
			mj = len(s)
		}
		var matched int
		if mj == len(s) {
			for _, idx := range s {
				if e.db.Dist.Distance(x, e.db.Vecs[idx]) <= t {
					matched++
				}
			}
		} else {
			perm := rng.Perm(len(s))[:mj]
			for _, pi := range perm {
				if e.db.Dist.Distance(x, e.db.Vecs[s[pi]]) <= t {
					matched++
				}
			}
		}
		total += float64(len(s)) * float64(matched) / float64(mj)
	}
	return total
}

// Refresh recomputes the stored signatures from the database's current
// contents, keeping the hyperplanes fixed — the cheap path for reusing
// a built estimator after the database mutated (streaming inserts and
// deletes), costing one O(|D|·bits·dim) hashing pass instead of a full
// rebuild with fresh planes. Not safe concurrently with Estimate.
func (e *Estimator) Refresh() {
	sigs := make([]uint64, e.db.Size())
	for i, v := range e.db.Vecs {
		sigs[i] = e.signature(v)
	}
	e.signatures = sigs
}

// Name returns the paper's model name.
func (e *Estimator) Name() string { return "LSH" }

// ConsistencyGuaranteed reports that the estimator is monotone in t for
// its fixed per-query sample.
func (e *Estimator) ConsistencyGuaranteed() bool { return true }

// EstimateBatch evaluates one query per row of x against the matching
// threshold in ts. Safe for concurrent use as long as nothing calls
// Refresh or BindDB concurrently; serving always works on a clone.
func (e *Estimator) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	out := make([]float64, x.Rows())
	for i := range out {
		out[i] = e.Estimate(x.Row(i), ts[i])
	}
	return out
}

// Dim returns the vector dimensionality the estimator was built on.
func (e *Estimator) Dim() int { return e.dim }

// TMax returns the largest answerable threshold (2, the cosine-distance
// ceiling).
func (e *Estimator) TMax() float64 { return e.tmax }

// DataSize returns the number of database vectors currently backing the
// estimator; the serving router compares it against VC sampling bounds.
func (e *Estimator) DataSize() int { return e.db.Size() }

// Clone returns a copy sharing the immutable hyperplanes but owning its
// signatures and a private copy of the database, so Refresh/BindDB on
// the clone never races with Estimate on the original.
func (e *Estimator) Clone() *Estimator {
	return &Estimator{
		cfg:        e.cfg,
		db:         e.db.Clone(),
		dim:        e.dim,
		tmax:       e.tmax,
		planes:     e.planes,
		signatures: append([]uint64(nil), e.signatures...),
	}
}

// CloneEstimator implements estimator.Cloner; it never fails.
func (e *Estimator) CloneEstimator() (estimator.Estimator, error) { return e.Clone(), nil }

// BindDB points the estimator at a different database snapshot. The
// caller must Refresh afterwards so signatures match the new contents.
func (e *Estimator) BindDB(db *vecdata.Database) error {
	if db.Dist != distance.Cosine {
		return fmt.Errorf("lshsampling: SimHash requires cosine distance, got %v", db.Dist)
	}
	if db.Dim != e.dim {
		return fmt.Errorf("lshsampling: database dim %d != estimator dim %d", db.Dim, e.dim)
	}
	e.db = db
	return nil
}

// blob is the gob wire form: config, planes, threshold ceiling and the
// backing vectors. Signatures are recomputed on load (one hashing pass)
// rather than stored.
type blob struct {
	Cfg    Config
	Dim    int
	TMax   float64
	Name   string
	Planes [][]float64
	Vecs   [][]float64
}

// Save serializes the estimator, including its backing vectors, to w.
func (e *Estimator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(blob{
		Cfg:    e.cfg,
		Dim:    e.dim,
		TMax:   e.tmax,
		Name:   e.db.Name,
		Planes: e.planes,
		Vecs:   e.db.Vecs,
	})
}

// Load reads an estimator previously written by Save and recomputes its
// signatures.
func Load(r io.Reader) (*Estimator, error) {
	var b blob
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("lshsampling: decode: %w", err)
	}
	if len(b.Planes) == 0 {
		return nil, fmt.Errorf("lshsampling: corrupt model: no hyperplanes")
	}
	e := &Estimator{
		cfg:    b.Cfg,
		db:     vecdata.NewDatabase(b.Name, distance.Cosine, b.Vecs),
		dim:    b.Dim,
		tmax:   b.TMax,
		planes: b.Planes,
	}
	e.Refresh()
	return e, nil
}
