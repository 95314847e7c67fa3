package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/obs"
	"selnet/internal/tensor"
)

// ErrBatcherClosed is returned by Submit after Close has begun.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// BatchIntoEstimator is the allocation-free batch surface of the plan
// path (selnet.Net and selnet.Partitioned implement it). Lanes use it
// with per-lane reusable buffers, so a fused batch costs zero heap
// allocations end to end.
type BatchIntoEstimator interface {
	EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64)
}

// BatcherConfig tunes the request coalescer.
type BatcherConfig struct {
	// MaxBatch is the largest number of requests fused into one
	// EstimateBatch call (default 32).
	MaxBatch int
	// FlushInterval bounds how long a queued lone request waits for
	// company while another submitter is in flight (default 2ms). With
	// no other submitter in flight, or once at least two requests are
	// fused, a drained queue flushes immediately.
	FlushInterval time.Duration
	// Lanes is the number of independent coalescing lanes. Each lane owns
	// its own queue, gather goroutine, and reusable inference buffers, so
	// up to Lanes batches run concurrently with no shared contention
	// point — the single batcher goroutine stops being a throughput
	// ceiling on multicore. Default: GOMAXPROCS.
	Lanes int
	// QueueDepth is each lane's request-channel buffer (default
	// 4*MaxBatch).
	QueueDepth int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.Lanes <= 0 {
		c.Lanes = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// LaneStats is one lane's share of the coalescing counters.
type LaneStats struct {
	// Batches counts EstimateBatch calls this lane issued.
	Batches uint64 `json:"batches"`
	// MaxFused is the largest batch this lane fused.
	MaxFused uint64 `json:"max_fused"`
	// Timeouts counts batches flushed by the interval timer.
	Timeouts uint64 `json:"timeouts"`
}

// BatcherStats is a snapshot of coalescing effectiveness counters,
// aggregated over every lane.
type BatcherStats struct {
	// Requests counts single-query requests submitted.
	Requests uint64 `json:"requests"`
	// Batches counts EstimateBatch calls issued.
	Batches uint64 `json:"batches"`
	// MaxFused is the largest batch fused so far.
	MaxFused uint64 `json:"max_fused"`
	// Timeouts counts batches flushed by the interval timer.
	Timeouts uint64 `json:"timeouts"`
	// Lanes holds the per-lane breakdown.
	Lanes []LaneStats `json:"lanes,omitempty"`
}

// Batcher coalesces concurrent single-query estimate requests for one
// model into batched EstimateBatch calls — the hot path of serving,
// since one compiled-plan pass over a B-row tensor is far cheaper than
// B passes over 1-row tensors. A submitter that finds no other
// submitter in flight has nothing to fuse with, so it runs its
// Estimate on its own goroutine and skips the lanes entirely. Every
// other request goes to the lanes: Submit round-robins them across
// per-lane queues, and each lane's goroutine greedily gathers every
// request queued with it (up to MaxBatch) and flushes as soon as its
// queue drains, never stalling fused work; only a lone request waits,
// up to FlushInterval and only while another submitter is in flight,
// for a companion. Each lane owns reusable input/output buffers sized
// to MaxBatch, so with a BatchIntoEstimator the fused pass allocates
// nothing.
type Batcher struct {
	est  Estimator
	into BatchIntoEstimator // non-nil when est supports the in-place path
	cfg  BatcherConfig
	dim  int

	lanes []*lane
	next  atomic.Uint64  // round-robin lane cursor
	wg    sync.WaitGroup // lane workers

	mu       sync.Mutex // guards closed + inflight Add
	closed   bool
	inflight sync.WaitGroup // submitters between admission and return

	requests atomic.Uint64
	// active counts submitters between admission and reply; a submitter
	// that raises it to 1 is alone and runs inline.
	active atomic.Int64
}

// lane is one coalescing shard: a queue, a gather goroutine, and the
// goroutine's private inference buffers.
type lane struct {
	reqs chan batchReq
	// waiting is 1 while the lane's worker lingers on a lone request
	// hoping for a companion; Submit joins such a lane so lone requests
	// fuse immediately instead of every client stalling a FlushInterval
	// in its own lane when clients are fewer than lanes.
	waiting atomic.Int32

	batches  atomic.Uint64
	maxFused atomic.Uint64
	timeouts atomic.Uint64
	sizes    *obs.Histogram // fused-batch sizes, exported via /metrics

	// Gather/run state owned by the lane goroutine: the reused batch
	// slice, the MaxBatch x dim input tensor with per-size row views, and
	// the threshold/output slices.
	buf   []batchReq
	x     *tensor.Dense
	views []*tensor.Dense // views[n] = first n rows of x (1-indexed)
	ts    []float64
	out   []float64
}

type batchReq struct {
	x   []float64
	t   float64
	enq time.Time // Submit handoff time
	deq time.Time // lane worker pickup time
	out chan batchRes
}

type batchRes struct {
	v      float64
	err    error
	timing BatchTiming
}

// BatchTiming attributes one submitted request's time inside the
// coalescer, measured by the lane worker itself so the serving layer
// can trace a request without instrumenting lane internals.
type BatchTiming struct {
	// Queue is the wait between Submit's channel handoff and the lane
	// worker dequeuing the request.
	Queue time.Duration
	// Fuse is the gather time: from this request's dequeue until the
	// fused batch launches (lane-mates arriving, rows copied in).
	Fuse time.Duration
	// Execute is the fused inference call (shared by the whole batch).
	Execute time.Duration
	// BatchSize is how many requests shared the fused batch.
	BatchSize int
}

// BatchSizeBuckets are the default bounds for batch-size histograms.
func BatchSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128}
}

// NewBatcher starts the coalescer's lane pool for est.
func NewBatcher(est Estimator, cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{est: est, cfg: cfg, dim: est.Dim()}
	b.into, _ = est.(BatchIntoEstimator)
	dim := b.dim
	for i := 0; i < cfg.Lanes; i++ {
		l := &lane{
			reqs:  make(chan batchReq, cfg.QueueDepth),
			sizes: obs.NewHistogram(BatchSizeBuckets()...),
			buf:   make([]batchReq, 0, cfg.MaxBatch),
			x:     tensor.New(cfg.MaxBatch, dim),
			views: make([]*tensor.Dense, cfg.MaxBatch+1),
			ts:    make([]float64, cfg.MaxBatch),
			out:   make([]float64, cfg.MaxBatch),
		}
		for n := 1; n <= cfg.MaxBatch; n++ {
			l.views[n] = l.x.RowsView(n)
		}
		b.lanes = append(b.lanes, l)
	}
	b.wg.Add(cfg.Lanes)
	for _, l := range b.lanes {
		go b.worker(l)
	}
	return b
}

// Submit queues one (query, threshold) estimate and blocks until its
// batch runs or ctx is done. It is safe for concurrent use.
func (b *Batcher) Submit(ctx context.Context, x []float64, t float64) (float64, error) {
	v, _, err := b.SubmitTimed(ctx, x, t)
	return v, err
}

// SubmitTimed is Submit plus the request's coalescer timing breakdown
// (zero on error paths that never reached an estimate). An inline run
// reports only Execute, with BatchSize 1.
func (b *Batcher) SubmitTimed(ctx context.Context, x []float64, t float64) (float64, BatchTiming, error) {
	if len(x) != b.dim {
		// The lanes copy into fixed dim-wide buffers, so a mismatched
		// query must be rejected here rather than silently truncated or
		// padded with a previous batch's values.
		return 0, BatchTiming{}, fmt.Errorf("serve: query has dim %d, model expects %d", len(x), b.dim)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, BatchTiming{}, ErrBatcherClosed
	}
	b.inflight.Add(1)
	b.mu.Unlock()
	defer b.inflight.Done()

	b.requests.Add(1)
	if err := ctx.Err(); err != nil {
		return 0, BatchTiming{}, err
	}
	defer b.active.Add(-1)
	if b.active.Add(1) == 1 {
		// No other submitter is in flight, so there is nothing to fuse
		// with: answer on this goroutine.
		return b.runInline(x, t)
	}
	l := b.pickLane()
	r := batchReq{x: x, t: t, enq: time.Now(), out: make(chan batchRes, 1)}
	select {
	case l.reqs <- r:
	case <-ctx.Done():
		return 0, BatchTiming{}, ctx.Err()
	}
	// The lane worker always answers (even on panic), so waiting only on
	// ctx alongside the reply never leaks the request.
	select {
	case res := <-r.out:
		return res.v, res.timing, res.err
	case <-ctx.Done():
		return 0, BatchTiming{}, ctx.Err()
	}
}

// pickLane chooses where to queue a request: a lane whose worker is
// lingering on a lone request gets joined (the pair flushes as soon as
// it fuses — under light load this keeps latency at fuse time, not
// FlushInterval, no matter how many lanes exist); otherwise requests
// round-robin so heavy load spreads across every lane.
func (b *Batcher) pickLane() *lane {
	for _, l := range b.lanes {
		if l.waiting.Load() != 0 {
			return l
		}
	}
	return b.roundRobin()
}

func (b *Batcher) roundRobin() *lane {
	return b.lanes[b.next.Add(1)%uint64(len(b.lanes))]
}

// Close stops accepting submissions, waits for inline runs and queued
// requests to be answered, and stops the lane workers. It is
// idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait() // no submitter is inline or mid-handoff once this returns
	for _, l := range b.lanes {
		close(l.reqs) // workers drain their buffers, then exit
	}
	b.wg.Wait()
}

// SizeHistogram snapshots the distribution of fused batch sizes,
// merged across lanes.
func (b *Batcher) SizeHistogram() obs.HistogramSnapshot {
	s := b.lanes[0].sizes.Snapshot()
	for _, l := range b.lanes[1:] {
		ls := l.sizes.Snapshot()
		for i := range s.Counts {
			s.Counts[i] += ls.Counts[i]
		}
		s.Sum += ls.Sum
		s.Count += ls.Count
	}
	return s
}

// LaneSizeHistograms snapshots each lane's fused-batch-size histogram.
func (b *Batcher) LaneSizeHistograms() []obs.HistogramSnapshot {
	out := make([]obs.HistogramSnapshot, len(b.lanes))
	for i, l := range b.lanes {
		out[i] = l.sizes.Snapshot()
	}
	return out
}

// Stats returns a snapshot of the coalescing counters.
func (b *Batcher) Stats() BatcherStats {
	s := BatcherStats{
		Requests: b.requests.Load(),
		Lanes:    make([]LaneStats, len(b.lanes)),
	}
	for i, l := range b.lanes {
		ls := LaneStats{
			Batches:  l.batches.Load(),
			MaxFused: l.maxFused.Load(),
			Timeouts: l.timeouts.Load(),
		}
		s.Lanes[i] = ls
		s.Batches += ls.Batches
		s.Timeouts += ls.Timeouts
		if ls.MaxFused > s.MaxFused {
			s.MaxFused = ls.MaxFused
		}
	}
	return s
}

// worker gathers and runs one lane's batches until its channel closes.
func (b *Batcher) worker(l *lane) {
	defer b.wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for first := range l.reqs {
		first.deq = time.Now()
		batch := append(l.buf[:0], first)
		timer.Reset(b.cfg.FlushInterval)
	gather:
		for len(batch) < b.cfg.MaxBatch {
			// Greedy drain: take whatever is already queued without
			// blocking.
			select {
			case r, ok := <-l.reqs:
				if !ok {
					break gather
				}
				r.deq = time.Now()
				batch = append(batch, r)
				continue
			default:
			}
			// Queue drained. With two or more requests fused there is
			// nothing to wait for — stalling here would add the flush
			// interval to every closed-loop client's latency. A lone
			// request lingers up to the flush interval for company, but
			// only if another submitter is in flight to provide it.
			if len(batch) > 1 || b.active.Load() <= 1 {
				break gather
			}
			l.waiting.Store(1)
			select {
			case r, ok := <-l.reqs:
				l.waiting.Store(0)
				if !ok {
					break gather
				}
				r.deq = time.Now()
				batch = append(batch, r)
			case <-timer.C:
				l.waiting.Store(0)
				l.timeouts.Add(1)
				break gather
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		b.run(l, batch)
	}
}

// catchPanic turns a panic in the estimator into the error a submitter
// sees; both the lane path and the inline path defer it.
func catchPanic(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("serve: batched inference panicked: %v", p)
	}
}

// record counts one batch of n requests on the lane. Inline runs record
// on a lane too, so its counters may have several writers.
func (l *lane) record(n int) {
	l.batches.Add(1)
	l.sizes.Observe(float64(n))
	for {
		cur := l.maxFused.Load()
		if uint64(n) <= cur || l.maxFused.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// runInline answers a lone submitter's request on its own goroutine,
// counted as a batch of one on a round-robin lane.
func (b *Batcher) runInline(x []float64, t float64) (v float64, bt BatchTiming, err error) {
	defer catchPanic(&err)
	b.roundRobin().record(1)
	start := time.Now()
	v = b.est.Estimate(x, t)
	return v, BatchTiming{Execute: time.Since(start), BatchSize: 1}, nil
}

// run executes one fused EstimateBatch call over the lane's buffers and
// distributes results.
func (b *Batcher) run(l *lane, batch []batchReq) {
	var err error
	defer func() {
		if err != nil {
			for _, r := range batch {
				// Buffered reply channels: never blocks, even if the
				// submitter already gave up on ctx.
				r.out <- batchRes{err: err}
			}
		}
	}()
	defer catchPanic(&err)
	n := len(batch)
	l.record(n)
	x := l.views[n]
	ts := l.ts[:n]
	for i, r := range batch {
		copy(x.Row(i), r.x)
		ts[i] = r.t
	}
	out := l.out[:n]
	execStart := time.Now()
	if b.into != nil {
		b.into.EstimateBatchInto(out, x, ts)
	} else {
		out = b.est.EstimateBatch(x, ts)
	}
	exec := time.Since(execStart)
	for i, r := range batch {
		r.out <- batchRes{v: out[i], timing: BatchTiming{
			Queue:     r.deq.Sub(r.enq),
			Fuse:      execStart.Sub(r.deq),
			Execute:   exec,
			BatchSize: n,
		}}
	}
}
