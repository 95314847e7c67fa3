package serve

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"selnet/internal/selnet"
)

// TestServeAllocs pins the serving hot path's heap allocations with
// testing.AllocsPerRun on one goroutine, so the counts do not depend on
// goroutine start-up the way a RunParallel benchmark's do. A Submit
// with no other submitter in flight runs inline and allocates nothing,
// nor does the model's compiled-plan Estimate.
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
	b := NewBatcher(net, BatcherConfig{MaxBatch: 32, FlushInterval: 100 * time.Microsecond})
	defer b.Close()
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
	if got := testing.AllocsPerRun(200, func() { net.Estimate(q, 0.5) }); got != 0 {
		t.Errorf("Net.Estimate allocates %v per call, want 0", got)
	}
}
