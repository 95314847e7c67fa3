package selnet

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"selnet/internal/autodiff"
	"selnet/internal/infer"
	"selnet/internal/nn"
	"selnet/internal/partition"
	"selnet/internal/tensor"
)

// This file puts SelNet inference on the compiled-plan engine
// (internal/infer). Both model types serve through one plan state: an
// encoder plan pool (x -> [x; z_x]), one head plan pool per local model
// ([x; z_x] -> control points τ, p), and one estimate loop that gates
// each head by its cluster's indicator and interpolates every row with
// autodiff.PWLAt. A Partitioned model has one head per cluster (Sec.
// 5.3: the locals "share the same transformed input [x; z_x], but each
// has its own networks"); a Net is the one-head case behind an
// always-active one-cluster partitioning. The first estimate records
// each pass once per batch-size class into an infer.Plan — forward
// kernels bound to preallocated buffers — and later calls check plans
// out of the pools, fill their inputs in place and replay the kernels.
// Steady-state inference performs zero heap allocations and never
// rebuilds a tape.
//
// A compiled plan snapshots the model's weights: the optimize pass
// (infer's fuse.go) packs each constant weight matrix into a blocked
// panel layout at compile time, so a plan belongs to one parameter
// generation. The remaining DropPlans sites are the training entry
// points — Net.Fit and Partitioned.Fit (on entry and after the
// best-snapshot restore), the δ_U prologue of HandleUpdate, and the
// patience loop (after every epoch and after its restore) — plus the
// serving layer, which drops a model generation's plans when a hot-swap
// retires it. Dropped plans recompile (and re-pack) lazily on next use.
// Clones and deserialized models are fresh objects and start with no
// plans.

// maxPlanBatch is the largest batch one compiled plan covers; larger
// EstimateBatch calls are chunked. Classes are powers of two, so a pool
// holds at most log2(maxPlanBatch)+1 resident plans.
const maxPlanBatch = 64

// alwaysActive gates a Net: one cluster, active for every (x, t).
var alwaysActive = partition.Restore(partition.Random, []partition.Cluster{{}}, false, true)

// plans is a model's compiled inference state: the encoder pool, one
// head pool per cluster of part, and a scratch pool for the per-call
// gate and gather bookkeeping.
type plans struct {
	dim     int
	tmax    float64
	part    *partition.Partitioning
	enc     *infer.Pool
	heads   []*infer.Pool
	scratch sync.Pool // *planScratch
}

// planScratch holds one call's allocation-free bookkeeping for a chunk
// of at most maxPlanBatch runs (ladderRuns).
type planScratch struct {
	ends      []int         // [maxPlanBatch] exclusive end row of each run
	top       []float64     // [maxPlanBatch] largest non-NaN threshold of each run; NaN if it has none
	runActive []bool        // row-major [maxPlanBatch x K]: indicator of each run at its top
	gather    []int         // run indices gathered for one head
	qbuf      []float64     // normalized-query scratch for cosine indicators
	x         *tensor.Dense // 1 x dim query of a single-row Estimate
	t, out    [1]float64    // threshold and estimate of a single-row Estimate
}

// planCache holds a model's plans, built lazily on first use.
type planCache struct {
	mu    sync.Mutex
	state atomic.Pointer[plans]
}

// load returns the cached plans, calling build on first use.
func (c *planCache) load(build func() *plans) *plans {
	if ps := c.state.Load(); ps != nil {
		return ps
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ps := c.state.Load(); ps != nil {
		return ps
	}
	ps := build()
	c.state.Store(ps)
	return ps
}

// drop invalidates the encoder and every head pool.
func (c *planCache) drop() {
	if ps := c.state.Load(); ps != nil {
		ps.enc.Drop()
		for _, h := range ps.heads {
			h.Drop()
		}
	}
}

// stats merges the encoder and head pool counters into one figure.
func (c *planCache) stats() infer.PoolStats {
	var s infer.PoolStats
	if ps := c.state.Load(); ps != nil {
		s = ps.enc.Stats()
		for _, h := range ps.heads {
			s = s.Merge(h.Stats())
		}
	}
	return s
}

// newPlans builds the plan state for heads over the shared autoencoder
// ae, gated by part (cluster i of part gates heads[i]).
func newPlans(dim int, tmax float64, part *partition.Partitioning, ae *nn.Autoencoder, heads []*Net) *plans {
	ps := &plans{dim: dim, tmax: tmax, part: part}
	ps.enc = infer.NewPool(maxPlanBatch, func(batch int) *infer.Plan {
		prog := infer.NewProgram()
		tp := autodiff.NewForwardTape(prog)
		x := tensor.NewPooled(batch, dim)
		xn := tp.Input(x)
		enh := tp.ConcatCols(xn, ae.Encode(tp, xn))
		return infer.NewPlan(batch, prog, x, enh.Value, nil, nil, append(tp.PooledBuffers(), x))
	})
	for _, h := range heads {
		ps.heads = append(ps.heads, infer.NewPool(maxPlanBatch, h.compileHeadPlan))
	}
	k := len(heads)
	ps.scratch.New = func() any {
		return &planScratch{
			ends:      make([]int, maxPlanBatch),
			top:       make([]float64, maxPlanBatch),
			runActive: make([]bool, maxPlanBatch*k),
			gather:    make([]int, 0, maxPlanBatch),
			qbuf:      make([]float64, dim),
			x:         tensor.New(1, dim),
		}
	}
	return ps
}

// compileHeadPlan records the control-point generators from a
// precomputed enhanced input [x; z_x]; rows are interpolated from the
// plan's Tau/P by autodiff.PWLAt.
func (n *Net) compileHeadPlan(batch int) *infer.Plan {
	prog := infer.NewProgram()
	tp := autodiff.NewForwardTape(prog)
	e := tensor.NewPooled(batch, n.dim+n.cfg.AELatent)
	tau, p := n.controlPointsFromEnhanced(tp, tp.Input(e))
	return infer.NewPlan(batch, prog, e, nil, tau.Value, p.Value, append(tp.PooledBuffers(), e))
}

// estimate is the single-row estimate: a one-row call of the shared
// loop over the scratch's 1 x dim query.
func (ps *plans) estimate(x []float64, t float64) float64 {
	if len(x) != ps.dim {
		panic(fmt.Sprintf("selnet: query has dim %d, model expects %d", len(x), ps.dim))
	}
	sc := ps.scratch.Get().(*planScratch)
	copy(sc.x.Data(), x)
	sc.t[0] = t
	ps.run(sc, sc.out[:], sc.x, sc.t[:])
	v := sc.out[0]
	ps.scratch.Put(sc)
	return v
}

// estimateInto is EstimateBatchInto for both model types.
func (ps *plans) estimateInto(out []float64, x *tensor.Dense, ts []float64) {
	if x.Rows() != len(ts) || len(out) != len(ts) {
		panic("selnet: EstimateBatchInto length mismatch")
	}
	if x.Cols() != ps.dim {
		panic("selnet: EstimateBatchInto query dim mismatch")
	}
	sc := ps.scratch.Get().(*planScratch)
	ps.run(sc, out, x, ts)
	ps.scratch.Put(sc)
}

// run is the one estimate loop; it returns the number of exact ball
// tests its gating made. Per chunk of up to maxPlanBatch runs of
// adjacent bit-identical vectors (ladderRuns), it makes one encoder plan
// pass over the runs' vectors, then per cluster one head plan pass over
// the runs whose cluster is active for at least one of their rows, and
// adds each row's positive autodiff.PWLAt value at the clamped threshold
// where the row's own indicator is active, summed in cluster order.
//
// The gate is evaluated lazily, relying on the indicator being monotone
// in t (partition.IndicatorInto). One IndicatorInto per run, at its
// largest non-NaN threshold, is exactly the OR over the run's rows, so
// it picks the runs each head serves. A row then needs its own gate only
// when its value is positive (a zero or NaN term adds nothing, which
// prunes the t = 0 end of a ladder) and its threshold lies below the
// smallest one already proven active for the (run, cluster); that
// decision is partition.Active, and a pass proves its threshold.
func (ps *plans) run(sc *planScratch, out []float64, x *tensor.Dense, ts []float64) (tests int) {
	k := len(ps.heads)
	for start := 0; start < x.Rows(); {
		runs := ladderRuns(sc.ends, x, start)
		end := sc.ends[runs-1]
		encPl := ps.enc.Get(runs)
		row := start
		for r := 0; r < runs; r++ {
			q := x.Row(row)
			copy(encPl.X.Row(r), q)
			top := math.NaN()
			for ; row < sc.ends[r]; row++ {
				if t := ts[row]; t > top || math.IsNaN(top) {
					top = t
				}
				out[row] = 0
			}
			sc.top[r] = top
			tests += ps.part.IndicatorInto(sc.runActive[r*k:(r+1)*k], sc.qbuf, q, top)
		}
		encPl.Run()
		for ci, heads := range ps.heads {
			gather := sc.gather[:0]
			for r := 0; r < runs; r++ {
				if sc.runActive[r*k+ci] {
					gather = append(gather, r)
				}
			}
			if len(gather) == 0 {
				continue
			}
			hp := heads.Get(len(gather))
			for j, r := range gather {
				copy(hp.X.Row(j), encPl.Out.Row(r))
			}
			hp.Run()
			for j, r := range gather {
				tau, pp := hp.Tau.Row(j), hp.P.Row(j)
				row := start
				if r > 0 {
					row = sc.ends[r-1]
				}
				proven := sc.top[r] // smallest threshold known active for (r, ci)
				for ; row < sc.ends[r]; row++ {
					t := ts[row]
					v := autodiff.PWLAt(tau, pp, clamp(t, 0, ps.tmax))
					if !(v > 0) {
						continue
					}
					if !(t >= proven) {
						active, n := ps.part.Active(ci, sc.qbuf, x.Row(row), t)
						tests += n
						if !active {
							continue
						}
						proven = t
					}
					out[row] += v
				}
			}
			heads.Put(hp)
		}
		ps.enc.Put(encPl)
		start = end
	}
	return tests
}

// ladderRuns splits the rows of x from start on into runs of adjacent
// rows whose vectors are bit-identical (so +0 and -0 differ, and NaNs
// with equal bits match), recording the exclusive end row of each run in
// ends until ends is full or x is exhausted. It returns the number of
// runs.
func ladderRuns(ends []int, x *tensor.Dense, start int) int {
	runs := 0
	for row := start; row < x.Rows() && runs < len(ends); runs++ {
		end := row + 1
		for end < x.Rows() && bytes.Equal(rowBytes(x, row), rowBytes(x, end)) {
			end++
		}
		ends[runs] = end
		row = end
	}
	return runs
}

// rowBytes views row i of x as its bytes, so two rows compare with one
// memequal: byte equality is bit equality.
func rowBytes(x *tensor.Dense, i int) []byte {
	r := x.Row(i)
	if len(r) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&r[0])), len(r)*8)
}

// planState returns the Net's plans: its one head over its own
// autoencoder, always active.
func (n *Net) planState() *plans {
	return n.plans.load(func() *plans { return newPlans(n.dim, n.cfg.TMax, alwaysActive, n.ae, []*Net{n}) })
}

// planState returns the partitioned model's plans: one head per
// cluster over the shared autoencoder, gated by the region indicators.
func (p *Partitioned) planState() *plans {
	return p.plans.load(func() *plans { return newPlans(p.dim, p.pcfg.Model.TMax, p.part, p.ae, p.locals) })
}

// DropPlans invalidates every compiled plan, returning their buffers to
// the tensor pool. Plans recompile lazily on the next estimate; calls
// holding a checked-out plan are unaffected.
func (n *Net) DropPlans() { n.plans.drop() }

// DropPlans invalidates every compiled plan (see Net.DropPlans).
func (p *Partitioned) DropPlans() { p.plans.drop() }

// PlanStats snapshots the encoder and head pool counters, merged (zero
// before first use).
func (n *Net) PlanStats() infer.PoolStats { return n.plans.stats() }

// PlanStats snapshots the encoder and head pool counters, merged (zero
// before first use).
func (p *Partitioned) PlanStats() infer.PoolStats { return p.plans.stats() }

// EstimateBatchInto is the allocation-free EstimateBatch: it writes one
// estimate per row of x into out (len(out) == x.Rows() == len(ts)). It
// runs the shared estimate loop with the Net's one always-active head.
// Control points depend on x alone, so each run of adjacent bit-identical
// vectors — a threshold ladder — goes through the plans once, and every
// row of the run is interpolated from that plan row's Tau/P with
// autodiff.PWLAt. The kernels' per-element determinism contract makes
// control points independent of batch composition, so every output equals
// Estimate bit for bit. Steady state performs zero heap allocations —
// the serving hot path calls this with reused buffers.
func (n *Net) EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64) {
	n.planState().estimateInto(out, x, ts)
}

// EstimateBatchInto is the allocation-free partitioned batch estimate:
// the shared estimate loop of Net.EstimateBatchInto with one head per
// cluster, each gated per row by its region indicator. The gate is
// lazy: one indicator scan per run at its largest threshold picks the
// heads to run, and a row's own gate is decided only where its head
// value is positive and its threshold is below one already proven
// active (see plans.run). Outputs equal Estimate bit for bit, and equal
// the eager per-row gate's.
func (p *Partitioned) EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64) {
	p.planState().estimateInto(out, x, ts)
}

// estimateBatchTape is the pre-plan reference implementation: one fresh
// tape per call. Kept for equivalence tests and the tape-vs-plan
// benchmark; production inference goes through the plan path.
func (n *Net) estimateBatchTape(x *tensor.Dense, ts []float64) []float64 {
	tp := autodiff.NewTape()
	tcol := tensor.New(len(ts), 1)
	for i, t := range ts {
		tcol.Set(i, 0, clamp(t, 0, n.cfg.TMax))
	}
	tau, p := n.controlPointsInference(tp, tp.Input(x))
	yhat := tp.PWLInterp(tau, p, tp.Input(tcol))
	out := make([]float64, len(ts))
	for i := range out {
		v := yhat.Value.At(i, 0)
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}
