package ingest

import (
	"math"
	"math/rand"
	"sync"

	"selnet/internal/distance"
	"selnet/internal/lshsampling"
	"selnet/internal/metrics"
	"selnet/internal/obs"
	"selnet/internal/vecdata"
)

// DBOracle is the shadow-scoring ground-truth oracle over one model's
// live, mutating database (the pipeline's private copy — the exact
// data the serving model's answers are judged against). It implements
// obs.Oracle and runs only on the Shadow worker goroutines, never the
// serving path.
//
// Small databases are scanned exactly. Large ones are sampled: a
// uniform sample whose size follows the VC-dimension bound of
// "The VC-Dimension of Queries and Selectivity Estimation Through
// Sampling" — distance-threshold queries are balls, a range space of
// VC dimension at most dim+1, so m = (c/eps^2)(dim+1 + ln(1/delta))
// samples estimate any query's selectivity within eps*|D| with
// probability 1-delta, independent of |D|. Cosine databases instead
// reuse the lshsampling stratified estimator, whose low-Hamming strata
// concentrate samples where small-threshold matches live. Both are
// capped by the operator's per-query distance-evaluation budget.
//
// Concurrency: the ingest worker owns the database and mutates it
// inside BeginMutate/EndMutate (a write lock + version bump); oracle
// reads hold the read lock, so a ground-truth scan never observes a
// half-applied batch.
type DBOracle struct {
	cfg OracleConfig

	mu      sync.RWMutex // write: ingest worker mutations; read: oracle queries
	db      *vecdata.Database
	version uint64 // bumped by EndMutate, guarded by mu

	// lshMu serializes LSH use and rebuilds; the estimator's per-query
	// sampling state is not safe for concurrent use.
	lshMu      sync.Mutex
	lsh        *lshsampling.Estimator
	lshVersion uint64
	lshTried   bool // build attempted; a failure is not retried per query
}

// OracleConfig tunes the ground-truth oracle.
type OracleConfig struct {
	// Budget caps distance evaluations per ground-truth computation
	// (default 2000, the paper's sampling budget). Databases no larger
	// than the budget are scanned exactly.
	Budget int
}

// oracleEpsilon and oracleDelta parameterize the VC sampling bound: the
// sampled selectivity is within oracleEpsilon*|D| of truth with
// probability 1-oracleDelta. The implied sample size is still capped by
// the Budget.
const (
	oracleEpsilon = 0.05
	oracleDelta   = 0.01
)

// NewDBOracle wraps the pipeline's private database copy.
func NewDBOracle(db *vecdata.Database, cfg OracleConfig) *DBOracle {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultConfig().Oracle.Budget
	}
	return &DBOracle{cfg: cfg, db: db}
}

// BeginMutate takes the write lock; the ingest worker brackets every
// database mutation (journal-entry application) with BeginMutate /
// EndMutate so oracle reads see batch-atomic state.
func (o *DBOracle) BeginMutate() { o.mu.Lock() }

// EndMutate publishes the mutation: bumps the version (invalidating
// cached LSH signatures) and releases the write lock.
func (o *DBOracle) EndMutate() {
	o.version++
	o.mu.Unlock()
}

// TrueSelectivity implements obs.Oracle.
func (o *DBOracle) TrueSelectivity(x []float64, t float64) (float64, string) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n := o.db.Size()
	if n <= o.cfg.Budget {
		return o.db.Selectivity(x, t), "exact"
	}
	if o.db.Dist == distance.Cosine {
		if v, ok := o.lshSelectivity(x, t); ok {
			return v, "lsh"
		}
	}
	return o.sampleSelectivity(x, t, n), "sample"
}

// sampleSelectivity estimates by uniform sampling with replacement.
// The sample indices come from a splitmix64 stream seeded by the query
// content, so repeated scoring of the same query reuses the same
// sample (deterministic, and monotone in t like the paper's
// consistency requirement), and the steady state allocates nothing.
func (o *DBOracle) sampleSelectivity(x []float64, t float64, n int) float64 {
	m := metrics.VCSampleSize(oracleEpsilon, oracleDelta, o.db.Dim+1)
	if m > o.cfg.Budget {
		m = o.cfg.Budget
	}
	if m > n {
		m = n
	}
	s := queryHash(x, t)
	matched := 0
	for i := 0; i < m; i++ {
		s = obs.Mix64(s)
		v := o.db.Vecs[s%uint64(n)]
		if o.db.Dist.Distance(x, v) <= t {
			matched++
		}
	}
	return float64(n) * float64(matched) / float64(m)
}

// queryHash folds a query's float bits into a nonzero sampling seed.
func queryHash(x []float64, t float64) uint64 {
	h := obs.Mix64(math.Float64bits(t))
	for _, v := range x {
		h = obs.Mix64(h ^ math.Float64bits(v))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// lshSelectivity estimates through the stratified SimHash sampler,
// (re)hashing the database lazily whenever a mutation bumped the
// version since the last build. Called with the read lock held, so the
// database cannot mutate underneath the signatures.
func (o *DBOracle) lshSelectivity(x []float64, t float64) (float64, bool) {
	o.lshMu.Lock()
	defer o.lshMu.Unlock()
	if o.lsh == nil {
		if o.lshTried {
			return 0, false
		}
		o.lshTried = true
		cfg := lshsampling.DefaultConfig()
		cfg.SampleBudget = o.cfg.Budget
		e, err := lshsampling.Build(rand.New(rand.NewSource(1)), o.db, cfg)
		if err != nil {
			return 0, false
		}
		o.lsh = e
		o.lshVersion = o.version
	}
	if o.lshVersion != o.version {
		o.lsh.Refresh()
		o.lshVersion = o.version
	}
	return o.lsh.Estimate(x, t), true
}
