package selnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"selnet/internal/distance"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// tinyConfig returns a small architecture for fast tests.
func tinyConfig(tmax float64) Config {
	return Config{
		L: 8, EmbedDim: 6,
		AEHidden: []int{16}, AELatent: 4,
		TauHidden: []int{16}, MHidden: []int{24, 16},
		TMax: tmax, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
}

func tinyTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 25, Batch: 64, LR: 3e-3, HuberDelta: 1.345, LogEps: 1e-3,
		Seed: 1, EvalEvery: 5, AEPretrainEpochs: 10, AEPretrainSample: 200,
	}
}

// testWorkload builds a small database and its geometric workload.
func testWorkload(seed int64, n, dim, queries, w int) (*vecdata.Database, *vecdata.Workload) {
	rng := rand.New(rand.NewSource(seed))
	db := vecdata.SyntheticFasttext(rng, n, dim, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, queries, w)
	return db, wl
}

func TestNetConstructionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := tinyConfig(0) // TMax unset
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for TMax=0")
			}
		}()
		NewNet(rng, 4, cfg)
	}()
	cfg2 := tinyConfig(1)
	cfg2.L = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for L=0")
			}
		}()
		NewNet(rng, 4, cfg2)
	}()
}

// Lemma 1 realized in code: for ANY weights (trained or random), the
// estimate is monotonically non-decreasing in t.
func TestEstimateMonotoneForRandomWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := NewNet(rng, 5, tinyConfig(2.0))
		x := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for tt := -0.2; tt <= 2.4; tt += 0.1 {
			v := net.Estimate(x, tt)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Control points must satisfy the structural invariants of Sec. 5.2:
// τ_0 = 0, τ_{L+1} = TMax, τ non-decreasing, p non-negative and
// non-decreasing.
func TestControlPointInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const tmax = 3.5
		net := NewNet(rng, 4, tinyConfig(tmax))
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		tau, p := net.ControlPoints(x)
		if len(tau) != net.cfg.L+2 || len(p) != net.cfg.L+2 {
			return false
		}
		if tau[0] != 0 {
			return false
		}
		if math.Abs(tau[len(tau)-1]-tmax) > 1e-9 {
			return false
		}
		for i := 1; i < len(tau); i++ {
			if tau[i] < tau[i-1]-1e-12 {
				return false
			}
		}
		if p[0] < 0 {
			return false
		}
		for i := 1; i < len(p); i++ {
			if p[i] < p[i-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryDependentTauVaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNet(rng, 4, tinyConfig(2))
	tau1, _ := net.ControlPoints([]float64{1, 0, 0, 0})
	tau2, _ := net.ControlPoints([]float64{0, 2, -1, 3})
	same := true
	for i := range tau1 {
		if math.Abs(tau1[i]-tau2[i]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Fatalf("query-dependent τ should differ across queries")
	}
}

// The SelNet-ad-ct ablation must produce the SAME τ for every query
// (Sec. 7.4, Figure 4).
func TestAdCtAblationSharesTau(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := tinyConfig(2)
	cfg.QueryDependentTau = false
	net := NewNet(rng, 4, cfg)
	if net.Name() != "SelNet-ad-ct" {
		t.Fatalf("Name = %q", net.Name())
	}
	tau1, _ := net.ControlPoints([]float64{1, 0, 0, 0})
	tau2, _ := net.ControlPoints([]float64{0, 2, -1, 3})
	for i := range tau1 {
		if math.Abs(tau1[i]-tau2[i]) > 1e-9 {
			t.Fatalf("ad-ct τ differs at %d: %v vs %v", i, tau1[i], tau2[i])
		}
	}
}

func TestEstimateBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNet(rng, 3, tinyConfig(1.5))
	qs := [][]float64{{0.1, 0.2, 0.3}, {-1, 0.5, 2}, {0, 0, 0}}
	ts := []float64{0.3, 0.9, 1.2}
	x, _, _ := vecdata.Matrices([]vecdata.Query{
		{X: qs[0], T: ts[0]}, {X: qs[1], T: ts[1]}, {X: qs[2], T: ts[2]},
	})
	batch := net.EstimateBatch(x, ts)
	for i := range qs {
		single := net.Estimate(qs[i], ts[i])
		if math.Abs(batch[i]-single) > 1e-9 {
			t.Fatalf("batch[%d] = %v, single = %v", i, batch[i], single)
		}
	}
}

func TestEstimateClampsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNet(rng, 3, tinyConfig(1.0))
	x := []float64{0.5, -0.5, 1}
	if got, want := net.Estimate(x, -5), net.Estimate(x, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("negative t should clamp to 0: %v vs %v", got, want)
	}
	if got, want := net.Estimate(x, 99), net.Estimate(x, 1.0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("huge t should clamp to TMax: %v vs %v", got, want)
	}
	// A NaN threshold estimates 0 on both model types, single and batched.
	db, wl := testWorkload(6, 200, 3, 5, 4)
	part := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	for _, m := range []interface {
		Estimate(x []float64, t float64) float64
		EstimateBatch(x *tensor.Dense, ts []float64) []float64
	}{net, part} {
		if got := m.Estimate(x, math.NaN()); got != 0 {
			t.Fatalf("%T: Estimate(x, NaN) = %v, want 0", m, got)
		}
		got := m.EstimateBatch(tensor.FromRows([][]float64{x, x, x}), []float64{0.5, math.NaN(), 0.5})
		if got[1] != 0 || got[0] != m.Estimate(x, 0.5) || got[2] != got[0] {
			t.Fatalf("%T: EstimateBatch with a NaN row = %v", m, got)
		}
	}
}

func TestFitImprovesAccuracy(t *testing.T) {
	db, wl := testWorkload(7, 800, 6, 40, 8)
	rng := rand.New(rand.NewSource(8))
	train, valid, test := wl.Split(rng)
	cfg := tinyConfig(wl.TMax)
	net := NewNet(rng, db.Dim, cfg)
	tc := tinyTrainConfig()
	// Compare the trained objective (Huber-log) on held-out queries: an
	// untrained network is a random baseline under any metric, so the
	// objective is the meaningful before/after yardstick.
	before := net.Loss(tc, test)
	net.Fit(tc, db, train, valid)
	after := net.Loss(tc, test)
	if after >= before {
		t.Fatalf("training did not improve test loss: %v -> %v", before, after)
	}
	if mape := testMAPE(net, test); mape > 1.5 {
		t.Fatalf("test MAPE after training too high: %v", mape)
	}
}

func testMAPE(est interface {
	Estimate(x []float64, t float64) float64
}, queries []vecdata.Query) float64 {
	var s float64
	for _, q := range queries {
		s += math.Abs(est.Estimate(q.X, q.T)-q.Y) / q.Y
	}
	return s / float64(len(queries))
}

// Consistency survives training (the guarantee is structural, not
// data-dependent).
func TestTrainedModelStillMonotone(t *testing.T) {
	db, wl := testWorkload(9, 500, 5, 30, 6)
	rng := rand.New(rand.NewSource(10))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 10
	net.Fit(tc, db, train, valid)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := db.Vecs[r.Intn(db.Size())]
		t1 := r.Float64() * wl.TMax
		t2 := t1 + r.Float64()*wl.TMax
		return net.Estimate(x, t1) <= net.Estimate(x, t2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMAEAndLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNet(rng, 3, tinyConfig(1))
	queries := []vecdata.Query{
		{X: []float64{0, 0, 0}, T: 0.5, Y: 10},
		{X: []float64{1, 1, 1}, T: 0.7, Y: 20},
	}
	mae := net.MAE(queries)
	if mae < 0 {
		t.Fatalf("MAE negative")
	}
	if net.MAE(nil) != 0 {
		t.Fatalf("empty MAE should be 0")
	}
	loss := net.Loss(tinyTrainConfig(), queries)
	if loss <= 0 {
		t.Fatalf("untrained loss should be positive, got %v", loss)
	}
}

// TestConcurrentInference verifies the documented guarantee that
// Estimate/EstimateBatch/ControlPoints are read-only and safe for
// concurrent use (the serving layer depends on it); run with -race, and
// check results are independent of interleaving.
func TestConcurrentInference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNet(rng, 5, tinyConfig(1))
	const goroutines = 8
	queries := make([][]float64, goroutines)
	want := make([]float64, goroutines)
	for i := range queries {
		queries[i] = make([]float64, 5)
		for j := range queries[i] {
			queries[i][j] = rng.Float64()
		}
		want[i] = net.Estimate(queries[i], 0.4)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := net.Estimate(queries[g], 0.4); got != want[g] {
					t.Errorf("goroutine %d: estimate %v, want %v", g, got, want[g])
					return
				}
				net.ControlPoints(queries[g])
			}
		}(g)
	}
	wg.Wait()
}
