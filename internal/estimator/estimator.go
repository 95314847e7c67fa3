// Package estimator declares the selectivity-estimator contract once:
// the model interface every estimator in the repository satisfies, the
// servable Estimator the registry, codec and ingest pipeline hold, and
// each optional capability a consumer may assert. It is a leaf: it
// names only tensor, infer and vecdata types, so every model package
// can implement its interfaces and every consumer can assert them
// without an import cycle.
package estimator

import (
	"selnet/internal/infer"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// Model is a trained selectivity estimator: given a query vector and a
// distance threshold it returns the estimated number of matching
// objects. The offline deep baselines implement only this; the paper's
// tables score every model through it.
type Model interface {
	// Estimate returns the estimated selectivity of (x, t).
	Estimate(x []float64, t float64) float64
	// Name returns the model's display name (as used in the paper's tables).
	Name() string
}

// Estimator is the servable contract. Implementations must be safe for
// concurrent use: the server calls Estimate and EstimateBatch from many
// goroutines at once. Estimate must not keep x, nor EstimateBatch x or
// ts, after it returns: they live in the request's pooled buffers,
// which the next request reuses.
type Estimator interface {
	Model
	EstimateBatch(x *tensor.Dense, ts []float64) []float64
	Dim() int
	TMax() float64
}

// Consistent is implemented by estimators that guarantee monotonicity in
// the threshold (the models marked with * in the paper's tables).
type Consistent interface {
	// ConsistencyGuaranteed reports whether monotonicity holds by construction.
	ConsistencyGuaranteed() bool
}

// IsConsistent reports whether m promises estimates non-decreasing in t.
func IsConsistent(m Model) bool {
	c, ok := m.(Consistent)
	return ok && c.ConsistencyGuaranteed()
}

// BatchInto is the allocation-free batch surface of the plan path: the
// batch is written into a caller-owned slice, and must equal
// EstimateBatch bit for bit.
type BatchInto interface {
	EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64)
}

// Cloner deep-copies an estimator for shadow retraining, refresh
// rebuilds and snapshots: nothing mutable is shared, so mutating the
// clone never changes the original's answers.
type Cloner interface {
	CloneEstimator() (Estimator, error)
}

// PlanDropper is implemented by estimators whose inference runs on
// compiled plan pools. The registry calls DropPlans on a displaced model
// after its batcher drains, so a hot-swap releases the old generation's
// plan buffers instead of leaving them pinned.
type PlanDropper interface {
	DropPlans()
}

// PlanStatser exposes plan-pool counters for /stats and /metrics.
type PlanStatser interface {
	PlanStats() infer.PoolStats
}

// PartitionLocator is the attribution surface of partitioned estimators:
// PartitionOf maps a query to the cluster that owns it (-1 when the
// partitioning carries no geometry). The shadow scorer uses it to break
// q-errors down by region.
type PartitionLocator interface {
	PartitionOf(x []float64, t float64) int
}

// PartitionCounter reports how many local models a partitioned
// estimator holds, for the model listing.
type PartitionCounter interface {
	K() int
}

// DataSizer reports the number of database vectors backing a
// sampling-class estimator; the router compares it against VC sampling
// bounds.
type DataSizer interface {
	DataSize() int
}

// Refresher is the capability of database-backed estimators with no
// training procedure whose derived state can be rebuilt against an
// updated database. An update cycle clones the estimator, binds the
// clone to a private copy of the updated database, refreshes, and
// hot-swaps it.
type Refresher interface {
	Estimator
	Cloner
	BindDB(db *vecdata.Database) error
	Refresh()
}

// BulkApplier is the cluster-bookkeeping surface of partitioned models:
// inserted and deleted vectors must be registered so local labels and
// indicator balls stay sound.
type BulkApplier interface {
	ApplyInsert(vecs [][]float64)
	ApplyDelete(vecs [][]float64)
}
