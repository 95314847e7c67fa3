package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selnet/internal/tensor"
)

// fakeEst is a deterministic, instrumented Estimator: the estimate is
// scale*(sum(x)+t), each EstimateBatch call is counted, and an optional
// per-call delay models real inference cost.
type fakeEst struct {
	dim   int
	scale float64
	delay time.Duration
	// hold, when non-nil, blocks every Estimate (the batcher's inline
	// path) until it is closed; batchHold does the same for every
	// EstimateBatch (the lane path). Either sends on entered, without
	// blocking, as it starts to wait.
	hold      chan struct{}
	batchHold chan struct{}
	entered   chan struct{}
	// panicNeg panics on any row whose first coordinate is negative.
	panicNeg bool

	calls   atomic.Uint64
	rows    atomic.Uint64
	maxRows atomic.Uint64
}

func newFakeEst(dim int) *fakeEst { return &fakeEst{dim: dim, scale: 1} }

// holding returns a fakeEst whose inline runs block until release is
// called; <-entered reports that one has started.
func holding(dim int) (f *fakeEst, entered <-chan struct{}, release func()) {
	f = newFakeEst(dim)
	f.hold = make(chan struct{})
	f.entered = make(chan struct{}, 1)
	return f, f.entered, func() { close(f.hold) }
}

func (f *fakeEst) Estimate(x []float64, t float64) float64 {
	f.wait(f.hold)
	return f.estimate(tensor.RowVector(x), []float64{t})[0]
}

func (f *fakeEst) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	f.wait(f.batchHold)
	return f.estimate(x, ts)
}

func (f *fakeEst) wait(hold chan struct{}) {
	if hold == nil {
		return
	}
	select {
	case f.entered <- struct{}{}:
	default:
	}
	<-hold
}

func (f *fakeEst) estimate(x *tensor.Dense, ts []float64) []float64 {
	if f.panicNeg {
		for i := range ts {
			if x.Row(i)[0] < 0 {
				panic("negative query")
			}
		}
	}
	f.calls.Add(1)
	f.rows.Add(uint64(len(ts)))
	for {
		cur := f.maxRows.Load()
		if uint64(len(ts)) <= cur || f.maxRows.CompareAndSwap(cur, uint64(len(ts))) {
			break
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	out := make([]float64, len(ts))
	for i := range out {
		var s float64
		for _, v := range x.Row(i) {
			s += v
		}
		out[i] = f.scale * (s + ts[i])
	}
	return out
}

func (f *fakeEst) Dim() int      { return f.dim }
func (f *fakeEst) TMax() float64 { return 1 }
func (f *fakeEst) Name() string  { return "fake" }

func fakeWant(scale float64, x []float64, t float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return scale * (s + t)
}

func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	est := newFakeEst(3)
	est.delay = 2 * time.Millisecond // give submitters time to pile up
	b := NewBatcher(est, BatcherConfig{MaxBatch: 64, FlushInterval: 5 * time.Millisecond, Lanes: 1})
	defer b.Close()

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := []float64{float64(i), 1, 2}
			got, err := b.Submit(context.Background(), x, 0.5)
			if err != nil {
				errs <- err
				return
			}
			if want := fakeWant(1, x, 0.5); math.Abs(got-want) > 1e-12 {
				t.Errorf("request %d: got %v, want %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("submit: %v", err)
	}
	st := b.Stats()
	if st.Requests != n {
		t.Fatalf("stats requests = %d, want %d", st.Requests, n)
	}
	if st.Batches >= n {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, n)
	}
	if st.MaxFused < 2 {
		t.Fatalf("max fused batch %d, want >= 2", st.MaxFused)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	est := newFakeEst(2)
	est.delay = time.Millisecond
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, FlushInterval: 20 * time.Millisecond, Lanes: 2})
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []float64{float64(i), 0}, 0.1); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := est.maxRows.Load(); got > 4 {
		t.Fatalf("largest EstimateBatch had %d rows, MaxBatch is 4", got)
	}
	if got := est.rows.Load(); got != 32 {
		t.Fatalf("estimator saw %d rows, want 32", got)
	}
}

func TestBatcherFlushInterval(t *testing.T) {
	t.Run("lone submit runs inline", func(t *testing.T) {
		est := newFakeEst(1)
		b := NewBatcher(est, BatcherConfig{MaxBatch: 1000, FlushInterval: time.Hour, Lanes: 1})
		defer b.Close()

		// A lone submitter has no one to wait for: it runs inline, so
		// even an hour-long flush interval costs it nothing.
		start := time.Now()
		if _, err := b.Submit(context.Background(), []float64{1}, 0.2); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("lone request took %v: it lingered instead of running inline", d)
		}
		if st := b.Stats(); st.Timeouts != 0 || st.Batches != 1 {
			t.Fatalf("stats = %+v, want 1 batch and no timer flush", st)
		}
		if got := est.rows.Load(); got != 1 {
			t.Fatalf("estimator saw %d rows, want 1", got)
		}
	})
	// A queued request whose only possible companion stays in flight
	// lingers no longer than the flush interval.
	t.Run("queued request flushes on the timer", func(t *testing.T) {
		est, entered, release := holding(1)
		b := NewBatcher(est, BatcherConfig{MaxBatch: 8, FlushInterval: 2 * time.Millisecond, Lanes: 1})
		defer b.Close()
		held := make(chan error, 1)
		go func() {
			_, err := b.Submit(context.Background(), []float64{1}, 0.1)
			held <- err
		}()
		within(t, entered)
		laned := make(chan error, 1)
		go func() {
			_, err := b.Submit(context.Background(), []float64{2}, 0.5)
			laned <- err
		}()
		if err := within(t, laned); err != nil {
			t.Fatalf("laned submit: %v", err)
		}
		if st := b.Stats(); st.Timeouts != 1 || st.Batches != 2 {
			t.Fatalf("stats = %+v, want 2 batches (1 inline, 1 timer flush)", st)
		}
		release()
		if err := within(t, held); err != nil {
			t.Fatalf("held submit: %v", err)
		}
	})
}

// An estimator panic becomes the batched-inference error on both the
// inline path and the lane path, and the batcher keeps serving.
func TestBatcherPanicBothPaths(t *testing.T) {
	est := newFakeEst(1)
	est.panicNeg = true
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, FlushInterval: time.Millisecond, Lanes: 1})
	defer b.Close()
	const want = "serve: batched inference panicked: negative query"

	if _, err := b.Submit(context.Background(), []float64{-1}, 0.1); err == nil || err.Error() != want {
		t.Fatalf("inline panic: err = %v, want %q", err, want)
	}

	// Hold a healthy inline run so the next submitter takes a lane; its
	// lone request flushes there on the timer.
	est.hold, est.entered = make(chan struct{}), make(chan struct{}, 1)
	held := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float64{1}, 0.1)
		held <- err
	}()
	within(t, est.entered)
	if _, err := b.Submit(context.Background(), []float64{-1}, 0.1); err == nil || err.Error() != want {
		t.Fatalf("lane panic: err = %v, want %q", err, want)
	}
	close(est.hold)
	if err := within(t, held); err != nil {
		t.Fatalf("held inline submit: %v", err)
	}
	if v, err := b.Submit(context.Background(), []float64{2}, 0.5); err != nil || v != 2.5 {
		t.Fatalf("after panics: %v, %v", v, err)
	}
	if st := b.Stats(); st.Batches != 4 || st.Lanes[0].Batches != 4 || st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want 4 batches (3 inline, 1 lane timer flush)", st)
	}
}

// stuckLinger is a flush interval far beyond what within waits, so a
// test that uses it passes only if something other than the timer ends
// a linger; a failing one still lets the deferred Close return.
const stuckLinger = 30 * time.Second

// within receives from ch, failing the test if nothing arrives in 10s:
// a request stuck lingering must fail fast, not hang the suite.
func within[T any](t *testing.T, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(stuckLinger / 3):
		t.Fatal("timed out: a submitter or estimate never got through")
		panic("unreachable")
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	est := newFakeEst(1)
	est.delay = time.Millisecond
	b := NewBatcher(est, BatcherConfig{MaxBatch: 8, FlushInterval: time.Millisecond, Lanes: 1})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every request submitted before Close must be answered, not
			// dropped.
			if _, err := b.Submit(context.Background(), []float64{float64(i)}, 0.1); err != nil {
				t.Errorf("pre-close submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	b.Close()
	b.Close() // idempotent
	if _, err := b.Submit(context.Background(), []float64{1}, 0.1); err != ErrBatcherClosed {
		t.Fatalf("post-close submit error = %v, want ErrBatcherClosed", err)
	}
	if got := est.rows.Load(); got != 16 {
		t.Fatalf("estimator saw %d rows, want 16", got)
	}
}

func TestBatcherContextCancellation(t *testing.T) {
	est, entered, release := holding(1)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, FlushInterval: time.Hour, Lanes: 1})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Alone, the request would run inline.
	if _, err := b.Submit(ctx, []float64{1}, 0.1); err != context.Canceled {
		t.Fatalf("inline submit error = %v, want context.Canceled", err)
	}
	// Beside a held inline run, it would take a lane.
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float64{1}, 0.1)
		done <- err
	}()
	within(t, entered)
	if _, err := b.Submit(ctx, []float64{1}, 0.1); err != context.Canceled {
		t.Fatalf("lane submit error = %v, want context.Canceled", err)
	}
	release()
	if err := within(t, done); err != nil {
		t.Fatalf("held submit: %v", err)
	}
	if got := est.rows.Load(); got != 1 {
		t.Fatalf("estimator saw %d rows, want 1 (cancelled requests never run)", got)
	}
}

// Submitters racing Close, lone and in company: every answer is right
// or ErrBatcherClosed, and no estimate runs after Close returns, since
// inline runs sit inside the same in-flight window as lane handoffs.
func TestBatcherSubmitDuringClose(t *testing.T) {
	est := newFakeEst(2)
	var closed atomic.Bool
	var late atomic.Uint64
	b := NewBatcher(&closeWatchEst{fakeEst: est, closed: &closed, late: &late},
		BatcherConfig{MaxBatch: 4, FlushInterval: 100 * time.Microsecond, Lanes: 2})

	var wg sync.WaitGroup
	var served atomic.Uint64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				x := []float64{float64(g), float64(i)}
				v, err := b.Submit(context.Background(), x, 0.25)
				if errors.Is(err, ErrBatcherClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if want := fakeWant(1, x, 0.25); v != want {
					t.Errorf("got %v, want %v", v, want)
					return
				}
				served.Add(1)
				if g%3 == 0 {
					// Some clients pause, so others often find
					// themselves alone and run inline.
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(g)
	}
	for deadline := time.Now().Add(10 * time.Second); served.Load() < 200 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	closed.Store(true)
	wg.Wait()
	if n := late.Load(); n != 0 {
		t.Fatalf("%d estimates ran after Close returned", n)
	}
	st := b.Stats()
	var batches uint64
	for _, ls := range st.Lanes {
		batches += ls.Batches
	}
	if batches != st.Batches || st.Batches == 0 {
		t.Fatalf("stats = %+v: aggregate batches must equal the lane sum", st)
	}
}

// closeWatchEst counts estimates that start after closed is set.
type closeWatchEst struct {
	*fakeEst
	closed *atomic.Bool
	late   *atomic.Uint64
}

func (c *closeWatchEst) Estimate(x []float64, t float64) float64 {
	if c.closed.Load() {
		c.late.Add(1)
	}
	return c.fakeEst.Estimate(x, t)
}

func (c *closeWatchEst) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	if c.closed.Load() {
		c.late.Add(1)
	}
	return c.fakeEst.EstimateBatch(x, ts)
}
