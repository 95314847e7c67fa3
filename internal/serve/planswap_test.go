package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"selnet/internal/selnet"
)

// Hot-swapping a plan-backed model while requests are in flight must
// never corrupt results: the displaced generation's plans are dropped
// (and recompile lazily for stragglers holding the old handle), the new
// generation compiles its own. Parameters are never mutated here, so
// every response must be finite and equal across generations of the
// same weights. Run with -race in CI.
func TestConcurrentSubmitDuringPlanHotSwap(t *testing.T) {
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	base := selnet.NewNet(rand.New(rand.NewSource(1)), 8, cfg)
	want := base.Estimate([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, 0.5)

	reg := NewRegistry(func(est Estimator) *Batcher {
		return NewBatcher(est, BatcherConfig{MaxBatch: 8, FlushInterval: 200 * time.Microsecond, Lanes: 2})
	})
	if _, err := reg.Publish("m", base, "seed"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Clones share no mutable state but produce identical
			// estimates, so correctness is observable across swaps.
			if _, err := reg.Publish("m", base.Clone(), "swap"); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	q := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	var clients sync.WaitGroup
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			ctx := context.Background()
			for i := 0; i < 300; i++ {
				m, ok := reg.Get("m")
				if !ok {
					t.Error("model vanished")
					return
				}
				v, err := m.Batcher().Submit(ctx, q, 0.5)
				if errors.Is(err, ErrBatcherClosed) {
					// Raced the swap: fall back to direct inference on the
					// handle, as the HTTP server does.
					v, err = m.Est.Estimate(q, 0.5), nil
				}
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("call %d: estimate %v, want %v", i, v, want)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	swapper.Wait()
	reg.Close()
}

// Lanes must spread work: with many concurrent submitters every lane
// should see at least one batch.
func TestBatcherLanesAllServe(t *testing.T) {
	est := newFakeEst(4)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, FlushInterval: 100 * time.Microsecond, Lanes: 3})
	defer b.Close()
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := b.Submit(context.Background(), []float64{1, 2, 3, 4}, 0.5); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := b.Stats()
	if st.Requests != 450 {
		t.Fatalf("requests = %d, want 450", st.Requests)
	}
	if len(st.Lanes) != 3 {
		t.Fatalf("lanes = %d, want 3", len(st.Lanes))
	}
	var batches uint64
	for lane, ls := range st.Lanes {
		if ls.Batches == 0 {
			t.Fatalf("lane %d served no batches", lane)
		}
		batches += ls.Batches
	}
	if batches != st.Batches {
		t.Fatalf("aggregate batches %d != lane sum %d", st.Batches, batches)
	}
}

// A lone submitter runs inline; everyone else still coalesces. Two
// cases pin the split.
func TestLoneRequestsFuseAcrossLanes(t *testing.T) {
	// While a slow estimate holds one submitter inline, the others are
	// in company: with more lanes than clients, a lane lingering on one
	// of them is joined by the next, so they fuse instead of each
	// stalling a FlushInterval in its own lane.
	t.Run("company fuses beside an inline run", func(t *testing.T) {
		est, entered, release := holding(2)
		b := NewBatcher(est, BatcherConfig{MaxBatch: 8, FlushInterval: 20 * time.Millisecond, Lanes: 8})
		defer b.Close()
		held := make(chan error, 1)
		go func() {
			_, err := b.Submit(context.Background(), []float64{1, 2}, 0.5)
			held <- err
		}()
		within(t, entered)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := []float64{float64(g), 4}
				if v, err := b.Submit(context.Background(), x, 0.5); err != nil || v != fakeWant(1, x, 0.5) {
					t.Errorf("submit %d: %v, %v", g, v, err)
				}
			}(g)
		}
		wg.Wait()
		release()
		if err := within(t, held); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.MaxFused < 2 {
			t.Fatalf("max fused = %d, want >= 2 (requests must have coalesced)", st.MaxFused)
		}
	})
	// A request queued while its submitter had company, and picked up
	// only after every submitter has left, has no one to wait for: the
	// lane flushes it at once instead of lingering.
	t.Run("queued lone request does not linger alone", func(t *testing.T) {
		est, entered, release := holding(2)
		est.batchHold = make(chan struct{})
		b := NewBatcher(est, BatcherConfig{MaxBatch: 8, FlushInterval: stuckLinger, Lanes: 1})
		defer b.Close()
		// Deferred after Close, so an early failure unblocks it.
		release = sync.OnceFunc(release)
		releaseBatch := sync.OnceFunc(func() { close(est.batchHold) })
		defer releaseBatch()
		defer release()
		held := make(chan error, 1)
		go func() {
			_, err := b.Submit(context.Background(), []float64{1, 2}, 0.5)
			held <- err
		}()
		within(t, entered)
		// Two laned submitters fuse, and their batch holds the worker.
		ctx, cancel := context.WithCancel(context.Background())
		laned := make(chan error, 3)
		submit := func(g int) {
			_, err := b.Submit(ctx, []float64{float64(g), 4}, 0.5)
			laned <- err
		}
		go submit(0)
		go submit(1)
		within(t, entered)
		// A third queues behind that batch.
		go submit(2)
		for deadline := time.Now().Add(10 * time.Second); len(b.lanes[0].reqs) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("third request never queued")
			}
			time.Sleep(100 * time.Microsecond)
		}
		// Every submitter leaves before the worker reaches the queued
		// request; handed-off requests still run.
		cancel()
		for i := 0; i < 3; i++ {
			if err := within(t, laned); err != context.Canceled {
				t.Fatalf("laned submit: %v, want context.Canceled", err)
			}
		}
		release()
		if err := within(t, held); err != nil {
			t.Fatal(err)
		}
		releaseBatch()
		for deadline := time.Now().Add(stuckLinger / 3); est.rows.Load() < 4; {
			if time.Now().After(deadline) {
				t.Fatalf("estimator saw %d rows, want 4: the queued request lingered", est.rows.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if st := b.Stats(); st.Timeouts != 0 || st.Batches != 3 {
			t.Fatalf("stats = %+v, want 3 batches (1 inline, 2 lane), no timer flush", st)
		}
	})
}
