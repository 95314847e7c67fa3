// Package infer is the forward-only execution engine behind SelNet's
// serving hot path. It separates the define phase from the execute
// phase, the way inference servers and deep-learning compilers do: a
// model's forward pass is recorded once into a Program (a topologically
// ordered list of forward kernels bound to preallocated buffers), then
// replayed in place for every request — no tape, no graph nodes, no
// per-call tensor allocation.
//
// A Plan wraps a Program with its input and output buffers for one
// batch-size class; a Pool hands plans out to concurrent requests so
// the hot path never contends on a shared plan's buffers. Steady-state
// execution performs zero heap allocations: the only allocations happen
// on compile (pool miss) and are amortized across the plan's lifetime.
package infer

import (
	"sync"
	"sync/atomic"

	"selnet/internal/tensor"
)

// Step is one recorded forward kernel: Run recomputes the op's output
// buffer from its input buffers, all captured at record time.
type Step struct {
	Name string
	Run  func()

	// kid is the interned kernel-timing slot for Name (-1 when the
	// kernel table overflowed); assigned by Program.Add.
	kid int

	// kind/dst/srcs describe the step to the optimize pass (fuse.go):
	// dst is the buffer Run overwrites, srcs the buffers it reads.
	// Steps appended via Add carry OpBarrier (unknown effects), which
	// disables optimization of the whole program.
	kind OpKind
	dst  *tensor.Dense
	srcs []*tensor.Dense
}

// Program is a replayable forward pass: the ordered kernels of one
// recorded computation. Programs are recorded by autodiff's forward
// tape (autodiff.NewForwardTape) and owned by exactly one Plan, since
// the kernels write into that plan's buffers.
type Program struct {
	steps []Step
}

// NewProgram returns an empty program for a recording tape to fill.
func NewProgram() *Program { return &Program{} }

// Add appends one kernel with unknown buffer effects (an optimization
// barrier). The name is interned into the kernel-timing table at record
// time so the execute path never touches the intern map. Prefer AddOp,
// which keeps the program optimizable.
func (p *Program) Add(name string, run func()) {
	p.steps = append(p.steps, Step{Name: name, Run: run, kid: internKernel(name)})
}

// AddOp appends one kernel with its dataflow description: kind
// identifies the operation to the fusion pass, dst is the buffer run
// overwrites, and srcs are the buffers it reads.
func (p *Program) AddOp(name string, kind OpKind, dst *tensor.Dense, run func(), srcs ...*tensor.Dense) {
	p.steps = append(p.steps, Step{
		Name: name, Run: run, kid: internKernel(name),
		kind: kind, dst: dst, srcs: srcs,
	})
}

// Len returns the number of recorded kernels.
func (p *Program) Len() int { return len(p.steps) }

// Run replays every kernel in record order. When kernel timing is
// enabled the replay also attributes wall time to each kernel's global
// counters; disabled (the default), the only overhead versus a plain
// loop is one atomic load per Run.
func (p *Program) Run() {
	if timingOn.Load() {
		p.runTimed()
		return
	}
	for i := range p.steps {
		p.steps[i].Run()
	}
}

// Plan is one compiled forward pass for a fixed batch capacity: the
// program plus the buffer a caller fills (X) and the buffers it reads
// (Out, Tau, P). A plan is single-threaded — check one out of a Pool per
// request — and valid as long as the model's parameter tensors are
// alive: kernels read parameter values through the same Dense objects
// the optimizer updates in place.
type Plan struct {
	// Batch is the row capacity; callers may fill fewer rows and ignore
	// the padding rows' outputs.
	Batch int
	// X is the input buffer the caller fills (Batch x inputDim).
	X *tensor.Dense
	// Out is the primary output (e.g. SelNet's enhanced representation
	// [x; z_x]); nil for plans that only surface control points.
	Out *tensor.Dense
	// Tau and P are the control-point outputs (nil when the plan does
	// not surface them).
	Tau, P *tensor.Dense

	prog  *Program
	bufs  []*tensor.Dense   // pooled buffers to recycle on Release
	packs []*tensor.PackedB // packed weight panels owned by the plan

	// epoch is the owning pool's drop epoch at compile time; Put releases
	// plans from a dropped epoch instead of re-pooling them.
	epoch uint64
}

// NewPlan assembles a compiled plan. bufs lists the pooled buffers the
// plan owns (typically the recording tape's intermediates plus the
// input buffers); Release returns them to tensor's buffer pool.
//
// NewPlan also runs the optimize pass (fuse.go) over the program: layer
// sequences are fused and weight matrices are packed into panel layout.
// The packed panels snapshot the weights — a plan therefore belongs to
// one model generation, and any in-place parameter mutation afterwards
// must be followed by dropping the plans (selnet's training entry
// points do this).
func NewPlan(batch int, prog *Program, x, out, tau, p *tensor.Dense, bufs []*tensor.Dense) *Plan {
	packs := prog.optimize(out, tau, p)
	return &Plan{Batch: batch, X: x, Out: out, Tau: tau, P: p, prog: prog, bufs: bufs, packs: packs}
}

// Run executes the forward pass in place over the plan's buffers.
func (p *Plan) Run() { p.prog.Run() }

// Steps returns the number of kernels in the plan's program.
func (p *Plan) Steps() int { return p.prog.Len() }

// Release recycles the plan's pooled buffers. The plan must not run
// again afterwards; Pool.Drop calls this for resident plans when a
// model's plans are invalidated.
func (p *Plan) Release() {
	for _, b := range p.bufs {
		tensor.Recycle(b)
	}
	p.bufs = nil
	for _, pb := range p.packs {
		pb.Release()
	}
	p.packs = nil
}

// ----------------------------------------------------------------------------
// Pool

// maxClasses bounds the batch-size classes a pool manages (class i
// serves batches of up to 1<<i rows).
const maxClasses = 16

// PoolStats is a point-in-time snapshot of a pool's counters.
type PoolStats struct {
	// Checkouts counts plan checkouts (Get calls).
	Checkouts uint64 `json:"checkouts"`
	// Rows sums the rows requested through Get — the rows pushed through
	// plans, not the batch-class capacity that served them.
	Rows uint64 `json:"rows"`
	// Misses counts checkouts that missed the class's resident fast
	// path and fell through to the overflow pool or a compile — the
	// contention signal for concurrent same-class checkouts.
	Misses uint64 `json:"misses"`
	// Compiles counts plan compilations: first use of a class, overflow
	// under concurrency, and lazy recompiles after Drop or GC.
	Compiles uint64 `json:"compiles"`
	// Drops counts invalidations (Drop calls).
	Drops uint64 `json:"drops"`
}

// Pool hands out compiled plans per batch-size class so concurrent
// requests never share buffers. Each class keeps one resident plan in
// an atomic slot — the single-request fast path survives GC cycles —
// plus a sync.Pool overflow for bursts. Plans are compiled lazily on
// first use of a class.
type Pool struct {
	compile  func(batch int) *Plan
	maxBatch int
	classes  []poolClass
	epoch    atomic.Uint64 // bumped by Drop; stale plans die on Put

	checkouts atomic.Uint64
	rows      atomic.Uint64
	misses    atomic.Uint64
	compiles  atomic.Uint64
	drops     atomic.Uint64
}

type poolClass struct {
	resident atomic.Pointer[Plan]
	overflow sync.Pool
}

// NewPool builds a plan pool whose classes cover batches of 1 up to
// maxBatch rows (rounded up to a power of two, capped at 1<<15);
// compile builds a plan for an exact batch capacity.
func NewPool(maxBatch int, compile func(batch int) *Plan) *Pool {
	if maxBatch < 1 {
		maxBatch = 1
	}
	nc := 1
	for (1<<(nc-1)) < maxBatch && nc < maxClasses {
		nc++
	}
	return &Pool{
		compile:  compile,
		maxBatch: 1 << (nc - 1),
		classes:  make([]poolClass, nc),
	}
}

// MaxBatch returns the largest batch a single plan covers; larger
// requests are chunked by the caller.
func (p *Pool) MaxBatch() int { return p.maxBatch }

// classFor returns the class index for an n-row batch (smallest class
// whose capacity covers n).
func (p *Pool) classFor(n int) int {
	c := 0
	for (1 << c) < n {
		c++
	}
	return c
}

// Get checks out a plan able to hold n rows (1 <= n <= MaxBatch),
// compiling one if the class has none pooled. The caller must return
// it with Put.
func (p *Pool) Get(n int) *Plan {
	if n < 1 || n > p.maxBatch {
		panic("infer: Pool.Get batch out of range")
	}
	p.checkouts.Add(1)
	p.rows.Add(uint64(n))
	cl := &p.classes[p.classFor(n)]
	if pl := cl.resident.Swap(nil); pl != nil {
		return pl
	}
	p.misses.Add(1)
	if v := cl.overflow.Get(); v != nil {
		return v.(*Plan)
	}
	p.compiles.Add(1)
	// Epoch is read before compiling: a Drop racing the compile stamps
	// the plan stale, so Put releases it rather than re-pooling it.
	epoch := p.epoch.Load()
	pl := p.compile(1 << p.classFor(n))
	pl.epoch = epoch
	return pl
}

// Put returns a checked-out plan. Plans from an epoch that has since
// been dropped are released instead of re-pooled, so a checkout that
// straddles an invalidation cannot resurrect the retired generation's
// buffers.
func (p *Pool) Put(pl *Plan) {
	if pl.epoch != p.epoch.Load() {
		pl.Release()
		return
	}
	cl := &p.classes[p.classFor(pl.Batch)]
	if cl.resident.CompareAndSwap(nil, pl) {
		return
	}
	cl.overflow.Put(pl)
}

// Drop invalidates every pooled plan, releasing resident plans'
// buffers back to the tensor pool. Plans currently checked out are
// unaffected until their holders Put them back, at which point the
// epoch mismatch releases them too. Call when the model's parameters
// are replaced wholesale or the pool is being discarded with its model.
func (p *Pool) Drop() {
	p.drops.Add(1)
	p.epoch.Add(1)
	for i := range p.classes {
		cl := &p.classes[i]
		if pl := cl.resident.Swap(nil); pl != nil {
			pl.Release()
		}
		for {
			v := cl.overflow.Get()
			if v == nil {
				break
			}
			v.(*Plan).Release()
		}
	}
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Checkouts: p.checkouts.Load(),
		Rows:      p.rows.Load(),
		Misses:    p.misses.Load(),
		Compiles:  p.compiles.Load(),
		Drops:     p.drops.Load(),
	}
}

// Merge folds s2 into s (used to aggregate a partitioned model's
// encoder and per-cluster head pools into one reported figure).
func (s PoolStats) Merge(s2 PoolStats) PoolStats {
	return PoolStats{
		Checkouts: s.Checkouts + s2.Checkouts,
		Rows:      s.Rows + s2.Rows,
		Misses:    s.Misses + s2.Misses,
		Compiles:  s.Compiles + s2.Compiles,
		Drops:     s.Drops + s2.Drops,
	}
}
