package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/estimator"
)

// ErrBatcherClosed is returned by Submit after Close has begun.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// BatcherConfig is the per-model Batcher configuration. It has no
// settings left: every estimate runs on its caller's goroutine.
type BatcherConfig struct {
	// Deprecated: no effect; requests are no longer fused.
	MaxBatch int
	// Deprecated: no effect; requests never wait for company.
	FlushInterval time.Duration
}

// BatcherStats is a snapshot of the Batcher's counters.
type BatcherStats struct {
	// Requests counts single-query requests submitted.
	Requests uint64 `json:"requests"`
}

// Batcher is one published model's single-estimate gate. Submit checks
// the query's width, admits the request unless Close has begun, and
// runs Estimate on the caller's goroutine, turning an estimator panic
// into an error. Close waits for every admitted request, so a registry
// that closes a displaced model's Batcher before DropPlans never drops
// plans under a running estimate.
type Batcher struct {
	est estimator.Estimator
	dim int

	mu       sync.Mutex // guards closed + inflight Add
	closed   bool
	inflight sync.WaitGroup // submitters between admission and return

	requests atomic.Uint64
}

// BatchTiming attributes one submitted request's time inside the
// Batcher, so the serving layer can trace it.
type BatchTiming struct {
	// Deprecated: always zero; requests are never queued.
	Queue time.Duration
	// Deprecated: always zero; requests are never fused.
	Fuse time.Duration
	// Execute is the Estimate call.
	Execute time.Duration
}

// NewBatcher returns an open Batcher for est. cfg has no effect.
func NewBatcher(est estimator.Estimator, cfg BatcherConfig) *Batcher {
	return &Batcher{est: est, dim: est.Dim()}
}

// Submit runs one (query, threshold) estimate on the calling goroutine
// unless ctx is already done. It is safe for concurrent use.
func (b *Batcher) Submit(ctx context.Context, x []float64, t float64) (float64, error) {
	v, _, err := b.SubmitTimed(ctx, x, t)
	return v, err
}

// SubmitTimed is Submit plus the request's timing (zero on error paths
// that never reached an estimate).
func (b *Batcher) SubmitTimed(ctx context.Context, x []float64, t float64) (v float64, bt BatchTiming, err error) {
	if len(x) != b.dim {
		// An estimator reads exactly dim coordinates, so a mismatched
		// query must be rejected here rather than silently truncated or
		// read past its end.
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
	if err = ctx.Err(); err != nil {
		return 0, BatchTiming{}, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: batched inference panicked: %v", p)
		}
	}()
	start := time.Now()
	v = b.est.Estimate(x, t)
	return v, BatchTiming{Execute: time.Since(start)}, nil
}

// Close stops accepting submissions and waits for every admitted
// request to return. It is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait()
}

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{Requests: b.requests.Load()}
}
