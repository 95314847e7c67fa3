package selnet

import (
	"math"
	"sync"
	"sync/atomic"

	"selnet/internal/autodiff"
	"selnet/internal/infer"
	"selnet/internal/tensor"
)

// This file puts SelNet inference on the compiled-plan engine
// (internal/infer). The first estimate against a model records its
// forward pass once per batch-size class into an infer.Plan — a
// topologically ordered list of forward kernels bound to preallocated
// buffers — and every later call checks a plan out of the model's pool,
// fills its input buffers in place, replays the kernels, and reads the
// outputs. Steady-state inference performs zero heap allocations and
// never rebuilds a tape.
//
// A compiled plan snapshots the model's weights: the optimize pass
// (infer's fuse.go) packs each constant weight matrix into a blocked
// panel layout at compile time, so a plan belongs to one parameter
// generation. Every code path that mutates parameters in place —
// optimizer steps inside Fit/HandleUpdate, best-snapshot restores —
// calls DropPlans before the next plan-based evaluation, and the
// serving layer drops plans when it discards a model generation after
// a hot-swap. Dropped plans are recompiled (and re-packed) lazily on
// next use. Clones and deserialized models are fresh objects and start
// with no plans.

// maxPlanBatch is the largest batch one compiled plan covers; larger
// EstimateBatch calls are chunked. Classes are powers of two, so a pool
// holds at most log2(maxPlanBatch)+1 resident plans.
const maxPlanBatch = 64

// netPlans is the lazily built plan pool of a Net.
type netPlans struct {
	mu   sync.Mutex
	pool atomic.Pointer[infer.Pool]
}

// planPool returns the Net's plan pool, building it on first use.
func (n *Net) planPool() *infer.Pool {
	if p := n.plans.pool.Load(); p != nil {
		return p
	}
	n.plans.mu.Lock()
	defer n.plans.mu.Unlock()
	if p := n.plans.pool.Load(); p != nil {
		return p
	}
	p := infer.NewPool(maxPlanBatch, n.compilePlan)
	n.plans.pool.Store(p)
	return p
}

// compilePlan records the full inference pass (encode, control points,
// PWL interpolation) for one batch capacity.
func (n *Net) compilePlan(batch int) *infer.Plan {
	prog := infer.NewProgram()
	tp := autodiff.NewForwardTape(prog)
	x := tensor.NewPooled(batch, n.dim)
	tcol := tensor.NewPooled(batch, 1)
	tau, p := n.controlPointsInference(tp, tp.Input(x))
	yhat := tp.PWLInterp(tau, p, tp.Input(tcol))
	bufs := append(tp.PooledBuffers(), x, tcol)
	return infer.NewPlan(batch, prog, x, tcol, yhat.Value, tau.Value, p.Value, bufs)
}

// compileHeadPlan records the control-point generators and PWL
// interpolation from a precomputed enhanced input [x; z_x] — the
// per-cluster plan of the partitioned estimator, which shares one
// encoder pass across all local heads.
func (n *Net) compileHeadPlan(batch int) *infer.Plan {
	prog := infer.NewProgram()
	tp := autodiff.NewForwardTape(prog)
	e := tensor.NewPooled(batch, n.dim+n.cfg.AELatent)
	tcol := tensor.NewPooled(batch, 1)
	tau, p := n.controlPointsFromEnhanced(tp, tp.Input(e))
	yhat := tp.PWLInterp(tau, p, tp.Input(tcol))
	bufs := append(tp.PooledBuffers(), e, tcol)
	return infer.NewPlan(batch, prog, e, tcol, yhat.Value, tau.Value, p.Value, bufs)
}

// DropPlans invalidates every compiled plan, returning their buffers to
// the tensor pool. Plans recompile lazily on the next estimate; calls
// holding a checked-out plan are unaffected. The serving layer calls
// this when a model generation is swapped out; training entry points
// call it so post-training inference recompiles against settled
// parameters.
func (n *Net) DropPlans() {
	if p := n.plans.pool.Load(); p != nil {
		p.Drop()
	}
}

// PlanStats snapshots the plan pool's counters (zero before first use).
func (n *Net) PlanStats() infer.PoolStats {
	if p := n.plans.pool.Load(); p != nil {
		return p.Stats()
	}
	return infer.PoolStats{}
}

// EstimateBatchInto is the allocation-free EstimateBatch: it writes one
// estimate per row of x into out (len(out) == x.Rows() == len(ts)).
// Control points depend on x alone, so adjacent rows with bit-identical
// vectors — a threshold ladder — share one plan row: each run's vector
// goes through the plan once and every row of the run is interpolated
// from that row's Tau/P with autodiff.PWLAt, the plan's own PWL
// arithmetic. PR 10's per-element determinism contract makes control
// points independent of batch composition, so every output equals
// Estimate bit for bit. Steady state performs zero heap allocations —
// the serving hot path calls this with reused buffers.
func (n *Net) EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64) {
	if x.Rows() != len(ts) || len(out) != len(ts) {
		panic("selnet: EstimateBatchInto length mismatch")
	}
	if x.Cols() != n.dim {
		panic("selnet: EstimateBatchInto query dim mismatch")
	}
	pool := n.planPool()
	var ends [maxPlanBatch]int
	for start := 0; start < len(ts); {
		runs := ladderRuns(ends[:], x, start)
		pl := pool.Get(runs)
		row := start
		for r := 0; r < runs; r++ {
			copy(pl.X.Row(r), x.Row(row))
			row = ends[r]
		}
		pl.Run()
		row = start
		for r := 0; r < runs; r++ {
			tau, p := pl.Tau.Row(r), pl.P.Row(r)
			for ; row < ends[r]; row++ {
				v := autodiff.PWLAt(tau, p, clamp(ts[row], 0, n.cfg.TMax))
				if v < 0 {
					v = 0
				}
				out[row] = v
			}
		}
		pool.Put(pl)
		start = ends[runs-1]
	}
}

// ladderRuns splits the rows of x from start on into runs of adjacent
// rows whose vectors are bit-identical (math.Float64bits, so +0 and -0
// differ), recording the exclusive end row of each run in ends until
// ends is full or x is exhausted. It returns the number of runs.
func ladderRuns(ends []int, x *tensor.Dense, start int) int {
	runs := 0
	for row := start; row < x.Rows() && runs < len(ends); runs++ {
		end := row + 1
		for end < x.Rows() && sameBits(x.Row(row), x.Row(end)) {
			end++
		}
		ends[runs] = end
		row = end
	}
	return runs
}

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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

// ----------------------------------------------------------------------------
// Partitioned plans

// partPlans is the lazily built plan state of a Partitioned model: one
// encoder pool (x -> [x; z_x]), one head pool per cluster (enhanced ->
// estimate), and a scratch pool for the per-request indicator and
// gather bookkeeping.
type partPlans struct {
	enc     *infer.Pool
	heads   []*infer.Pool
	scratch sync.Pool // *partScratch
}

// partScratch holds one request's allocation-free bookkeeping for a
// chunk of at most maxPlanBatch runs (ladderRuns).
type partScratch struct {
	ends      []int     // [maxPlanBatch] exclusive end row of each run
	active    []bool    // row-major [chunk rows x K] indicator matrix; grows with the longest chunk
	runActive []bool    // row-major [maxPlanBatch x K]: cluster active for any row of the run
	gather    []int     // run indices gathered for one head
	qbuf      []float64 // normalized-query scratch for cosine indicators
}

type partPlanState struct {
	mu    sync.Mutex
	state atomic.Pointer[partPlans]
}

// planState returns the model's plan pools, building them on first use.
func (p *Partitioned) planState() *partPlans {
	if ps := p.plans.state.Load(); ps != nil {
		return ps
	}
	p.plans.mu.Lock()
	defer p.plans.mu.Unlock()
	if ps := p.plans.state.Load(); ps != nil {
		return ps
	}
	ps := &partPlans{enc: infer.NewPool(maxPlanBatch, p.compileEncPlan)}
	for _, l := range p.locals {
		ps.heads = append(ps.heads, infer.NewPool(maxPlanBatch, l.compileHeadPlan))
	}
	k, dim := p.K(), p.dim
	ps.scratch.New = func() any {
		return &partScratch{
			ends:      make([]int, maxPlanBatch),
			active:    make([]bool, maxPlanBatch*k),
			runActive: make([]bool, maxPlanBatch*k),
			gather:    make([]int, 0, maxPlanBatch),
			qbuf:      make([]float64, dim),
		}
	}
	p.plans.state.Store(ps)
	return ps
}

// compileEncPlan records the shared encoder pass: X in, the enhanced
// representation [x; z_x] out (no threshold, no control points).
func (p *Partitioned) compileEncPlan(batch int) *infer.Plan {
	prog := infer.NewProgram()
	tp := autodiff.NewForwardTape(prog)
	x := tensor.NewPooled(batch, p.dim)
	xn := tp.Input(x)
	enh := tp.ConcatCols(xn, p.ae.Encode(tp, xn))
	bufs := append(tp.PooledBuffers(), x)
	return infer.NewPlan(batch, prog, x, nil, enh.Value, nil, nil, bufs)
}

// DropPlans invalidates the encoder and every head pool (and any pools
// the local nets built for direct use).
func (p *Partitioned) DropPlans() {
	if ps := p.plans.state.Load(); ps != nil {
		ps.enc.Drop()
		for _, h := range ps.heads {
			h.Drop()
		}
	}
	for _, l := range p.locals {
		l.DropPlans()
	}
}

// PlanStats merges the encoder and per-cluster head pool counters into
// one figure.
func (p *Partitioned) PlanStats() infer.PoolStats {
	var s infer.PoolStats
	if ps := p.plans.state.Load(); ps != nil {
		s = ps.enc.Stats()
		for _, h := range ps.heads {
			s = s.Merge(h.Stats())
		}
	}
	for _, l := range p.locals {
		s = s.Merge(l.PlanStats())
	}
	return s
}

// EstimateBatchInto is the allocation-free partitioned batch estimate.
// Like Net.EstimateBatchInto it evaluates each run of adjacent
// bit-identical vectors once: per chunk of up to maxPlanBatch runs, one
// encoder plan pass over the runs' vectors, then per cluster one head
// plan pass over the runs whose region is active for at least one of
// their rows. Gating stays per row (the t = 0 end of a ladder prunes
// best), and each active row adds autodiff.PWLAt over its run's head
// Tau/P, clamped and summed in cluster order exactly as Estimate does —
// outputs equal Estimate bit for bit.
func (p *Partitioned) EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64) {
	if x.Rows() != len(ts) || len(out) != len(ts) {
		panic("selnet: EstimateBatchInto length mismatch")
	}
	if x.Cols() != p.dim {
		panic("selnet: EstimateBatchInto query dim mismatch")
	}
	if x.Rows() == 0 {
		return
	}
	ps := p.planState()
	k := p.K()
	tmax := p.pcfg.Model.TMax
	sc := ps.scratch.Get().(*partScratch)
	for start := 0; start < x.Rows(); {
		runs := ladderRuns(sc.ends, x, start)
		end := sc.ends[runs-1]
		if need := (end - start) * k; len(sc.active) < need {
			sc.active = make([]bool, need)
		}
		encPl := ps.enc.Get(runs)
		row := start
		for r := 0; r < runs; r++ {
			copy(encPl.X.Row(r), x.Row(row))
			ra := sc.runActive[r*k : (r+1)*k]
			clear(ra)
			for ; row < sc.ends[r]; row++ {
				act := sc.active[(row-start)*k : (row-start+1)*k]
				p.part.IndicatorInto(act, sc.qbuf, x.Row(row), ts[row])
				for ci, a := range act {
					ra[ci] = ra[ci] || a
				}
				out[row] = 0
			}
		}
		encPl.Run()
		for ci := range p.locals {
			gather := sc.gather[:0]
			for r := 0; r < runs; r++ {
				if sc.runActive[r*k+ci] {
					gather = append(gather, r)
				}
			}
			if len(gather) == 0 {
				continue
			}
			hp := ps.heads[ci].Get(len(gather))
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
				for ; row < sc.ends[r]; row++ {
					if !sc.active[(row-start)*k+ci] {
						continue
					}
					if v := autodiff.PWLAt(tau, pp, clamp(ts[row], 0, tmax)); v > 0 {
						out[row] += v
					}
				}
			}
			ps.heads[ci].Put(hp)
		}
		ps.enc.Put(encPl)
		start = end
	}
	ps.scratch.Put(sc)
}
