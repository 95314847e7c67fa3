package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// TestEstimateBatchAllocsIndependentOfRows pins the batch route's
// decode: the scanner writes rows into a pooled tensor and parses a
// repeated row once, so a request's heap allocations do not depend on
// its row count or on whether its rows repeat.
func TestEstimateBatchAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	const dim = 16
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Registry().Publish("m", tinyNet(1, dim), "mem"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var counts []float64
	for _, tc := range []struct {
		name        string
		vecs, steps int
	}{
		{"8 ladder rows", 1, 8},
		{"256 ladder rows", 32, 8},
		{"256 distinct rows", 256, 1},
	} {
		body := batchBody(t, dim, tc.vecs, tc.steps)
		serve := func() {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body)))
			if rw.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rw.Code, rw.Body)
			}
		}
		serve() // warm the pools and compile the plans
		got := testing.AllocsPerRun(50, serve)
		t.Logf("%s: %v allocs per request", tc.name, got)
		counts = append(counts, got)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("allocs per batch request depend on the body: 8 ladder rows %v, 256 ladder rows %v, 256 distinct rows %v",
			counts[0], counts[1], counts[2])
	}
}
