package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"selnet/internal/selnet"
)

// heldNet blocks any Estimate at a negative threshold until release is
// closed, signalling entered first, so a test can hold one submitter in
// flight beside others.
type heldNet struct {
	*selnet.Net
	entered chan struct{}
	release chan struct{}
}

func (h heldNet) Estimate(x []float64, t float64) float64 {
	if t < 0 {
		h.entered <- struct{}{}
		<-h.release
		return 0
	}
	return h.Net.Estimate(x, t)
}

// TestServeAllocs pins the serving hot path's heap allocations with
// testing.AllocsPerRun on one goroutine, so the counts do not depend on
// goroutine start-up the way a RunParallel benchmark's do. A Submit
// runs on its caller's goroutine and allocates nothing, whether it is
// alone or another submitter is in flight, nor does the model's
// compiled-plan Estimate.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	net := selnet.NewNet(rand.New(rand.NewSource(1)), 16, cfg)
	q := make([]float64, net.Dim())
	for i := range q {
		q[i] = float64(i) / float64(len(q))
	}
	est := heldNet{Net: net, entered: make(chan struct{}), release: make(chan struct{})}
	b := NewBatcher(est, BatcherConfig{})
	defer b.Close()
	// Deferred after Close, so an early failure unblocks it.
	release := sync.OnceFunc(func() { close(est.release) })
	defer release()
	ctx := context.Background()
	submit := func() {
		if _, err := b.Submit(ctx, q, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	submit() // compile the plans outside the measurement
	if got := testing.AllocsPerRun(200, submit); got != 0 {
		t.Errorf("lone Batcher.Submit allocates %v per request, want 0", got)
	}

	held := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, q, -1)
		held <- err
	}()
	<-est.entered
	if got := testing.AllocsPerRun(200, submit); got != 0 {
		t.Errorf("Batcher.Submit beside an in-flight submitter allocates %v per request, want 0", got)
	}
	release()
	if err := <-held; err != nil {
		t.Fatalf("held submit: %v", err)
	}

	if got := testing.AllocsPerRun(200, func() { net.Estimate(q, 0.5) }); got != 0 {
		t.Errorf("Net.Estimate allocates %v per call, want 0", got)
	}
}
