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
		return NewBatcher(est, BatcherConfig{})
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
