package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selnet/internal/selnet"
	"selnet/internal/tensor"
)

// fakeEst is a deterministic, instrumented Estimator: the estimate is
// scale*(sum(x)+t), every row estimated is counted, and an optional
// per-call delay models real inference cost.
type fakeEst struct {
	dim   int
	scale float64
	delay time.Duration
	// hold, when non-nil, blocks every Estimate until it is closed,
	// sending on entered, without blocking, as it starts to wait.
	hold    chan struct{}
	entered chan struct{}
	// panicNeg panics on any row whose first coordinate is negative.
	panicNeg bool

	rows atomic.Uint64
}

func newFakeEst(dim int) *fakeEst { return &fakeEst{dim: dim, scale: 1} }

// holding returns a fakeEst whose Estimate calls block until release is
// called; <-entered reports that one has started.
func holding(dim int) (f *fakeEst, entered <-chan struct{}, release func()) {
	f = newFakeEst(dim)
	f.hold = make(chan struct{})
	f.entered = make(chan struct{}, 1)
	return f, f.entered, func() { close(f.hold) }
}

func (f *fakeEst) Estimate(x []float64, t float64) float64 {
	if f.hold != nil {
		select {
		case f.entered <- struct{}{}:
		default:
		}
		<-f.hold
	}
	return f.estimate(tensor.RowVector(x), []float64{t})[0]
}

func (f *fakeEst) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	return f.estimate(x, ts)
}

func (f *fakeEst) estimate(x *tensor.Dense, ts []float64) []float64 {
	if f.panicNeg {
		for i := range ts {
			if x.Row(i)[0] < 0 {
				panic("negative query")
			}
		}
	}
	f.rows.Add(uint64(len(ts)))
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

// An estimator panic becomes an error for its submitter, and the
// batcher keeps serving.
func TestBatcherPanicBothPaths(t *testing.T) {
	est := newFakeEst(1)
	est.panicNeg = true
	b := NewBatcher(est, BatcherConfig{})
	defer b.Close()
	const want = "serve: batched inference panicked: negative query"

	if _, err := b.Submit(context.Background(), []float64{-1}, 0.1); err == nil || err.Error() != want {
		t.Fatalf("panic: err = %v, want %q", err, want)
	}
	if v, err := b.Submit(context.Background(), []float64{2}, 0.5); err != nil || v != 2.5 {
		t.Fatalf("after panic: %v, %v", v, err)
	}
	if st := b.Stats(); st.Requests != 2 {
		t.Fatalf("stats = %+v, want 2 requests", st)
	}
}

// Concurrent submitters each get exactly their own input's estimate:
// every answer is bit-identical to a direct Estimate call.
func TestBatcherConcurrentSubmitsMatchEstimate(t *testing.T) {
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	net := selnet.NewNet(rand.New(rand.NewSource(3)), 8, cfg)
	const n = 16
	xs := make([][]float64, n)
	ts := make([]float64, n)
	want := make([]uint64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		xs[i] = make([]float64, net.Dim())
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		ts[i] = rng.Float64()
		want[i] = math.Float64bits(net.Estimate(xs[i], ts[i]))
	}
	b := NewBatcher(net, BatcherConfig{})
	defer b.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				v, err := b.Submit(context.Background(), xs[i], ts[i])
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				if got := math.Float64bits(v); got != want[i] {
					t.Errorf("submit %d: estimate bits %#x, want %#x", i, got, want[i])
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if st := b.Stats(); st.Requests != n*20 {
		t.Fatalf("requests = %d, want %d", st.Requests, n*20)
	}
}

// within receives from ch, failing the test if nothing arrives in 10s:
// a stuck submitter must fail fast, not hang the suite.
func within[T any](t *testing.T, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("timed out: a submitter or estimate never got through")
		panic("unreachable")
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	est := newFakeEst(1)
	est.delay = time.Millisecond
	b := NewBatcher(est, BatcherConfig{})

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
	b := NewBatcher(est, BatcherConfig{})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, []float64{1}, 0.1); err != context.Canceled {
		t.Fatalf("lone submit error = %v, want context.Canceled", err)
	}
	// Beside a held run, too, a cancelled request never runs.
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float64{1}, 0.1)
		done <- err
	}()
	within(t, entered)
	if _, err := b.Submit(ctx, []float64{1}, 0.1); err != context.Canceled {
		t.Fatalf("accompanied submit error = %v, want context.Canceled", err)
	}
	release()
	if err := within(t, done); err != nil {
		t.Fatalf("held submit: %v", err)
	}
	if got := est.rows.Load(); got != 1 {
		t.Fatalf("estimator saw %d rows, want 1 (cancelled requests never run)", got)
	}
}

// Submitters racing Close: every answer is right or ErrBatcherClosed,
// and no estimate runs after Close returns, since every estimate sits
// inside the in-flight window Close waits on.
func TestBatcherSubmitDuringClose(t *testing.T) {
	est := newFakeEst(2)
	var closed atomic.Bool
	var late atomic.Uint64
	b := NewBatcher(&closeWatchEst{fakeEst: est, closed: &closed, late: &late}, BatcherConfig{})

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
	if st := b.Stats(); st.Requests < served.Load() {
		t.Fatalf("stats = %+v, fewer requests than the %d served", st, served.Load())
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
