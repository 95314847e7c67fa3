package ingest

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"selnet/internal/distance"
	"selnet/internal/obs"
	"selnet/internal/selnet"
	"selnet/internal/vecdata"
)

// TestShadowSampledServeZeroAllocs pins the shadow-sampled serve loop:
// a compiled-plan Estimate plus the Offer tap at a 10% sample rate,
// while the worker scores sampled queries against this package's exact
// oracle. AllocsPerRun counts allocations on every goroutine, so the
// pin covers the tap and the scoring pipeline behind it (oracle scan,
// rolling aggregates, worst-N), not only the unsampled fast path.
func TestShadowSampledServeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	net := selnet.NewNet(rand.New(rand.NewSource(1)), 16, cfg)
	rng := rand.New(rand.NewSource(2))
	queries := make([][]float64, 256)
	for i := range queries {
		queries[i] = make([]float64, net.Dim())
		for j := range queries[i] {
			queries[i][j] = rng.Float64()
		}
	}
	db := vecdata.SyntheticFasttext(rand.New(rand.NewSource(3)), 500, net.Dim(), distance.Euclidean)
	sh := obs.NewShadow(obs.ShadowConfig{SampleRate: 0.1})
	sh.SetOracle("m", NewDBOracle(db, OracleConfig{}))
	defer sh.Close()
	scored := func() uint64 {
		st, _ := sh.Accuracy().ModelStats("m", 0)
		return st.Samples
	}

	// Warm up until the model's rolling rings exist, the worst-N list is
	// at capacity and the plan pool is primed.
	id := uint64(0)
	estimate := func() {
		id++
		q := queries[int(id)%len(queries)]
		sh.Offer("m", id, 0, q, 0.5, 1, net.Estimate(q, 0.5))
	}
	for scored() < 64 {
		estimate()
		if id%1024 == 0 {
			time.Sleep(time.Millisecond) // let the worker drain
		}
	}

	// Each run serves 20 estimates, about two samples at rate 0.1, so an
	// allocation per scored sample reads as 1 or more per run.
	// AllocsPerRun sets GOMAXPROCS to 1, so each run yields to let the
	// worker score what it sampled.
	before := scored()
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 20; i++ {
			estimate()
		}
		runtime.Gosched()
	}); got != 0 {
		t.Fatalf("20 shadow-sampled estimates allocate %v per run, want 0", got)
	}
	if during := scored() - before; during == 0 {
		t.Fatal("the oracle worker scored no sample during the measurement")
	} else {
		t.Logf("%d samples scored during the measurement", during)
	}
}
