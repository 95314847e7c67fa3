package selnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"selnet/internal/autodiff"
	"selnet/internal/distance"
	"selnet/internal/infer"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// planTestNet returns an untrained net with random weights: estimation
// correctness and cost do not depend on training.
func planTestNet(seed int64, dim int) *Net {
	return NewNet(rand.New(rand.NewSource(seed)), dim, tinyConfig(1))
}

func randQueries(seed int64, n, dim int) (*tensor.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, dim)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	ts := make([]float64, n)
	for i := range ts {
		// Cover in-range, clamped-low, and clamped-high thresholds.
		ts[i] = rng.Float64()*1.6 - 0.3
	}
	return x, ts
}

// ladderQueries builds a batch of threshold ladders — runs of adjacent
// rows sharing one vector, the shape EstimateBatchInto evaluates once per
// run: runs of 1, 8 and 65 rows, more than maxPlanBatch distinct runs, a
// vector repeated non-adjacently, two rows differing only in the sign of
// a zero, and thresholds unsorted within a run (the 64 short runs ascend,
// like selbench's batch_scan).
func ladderQueries(seed int64, dim int) (*tensor.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var rows [][]float64
	var ts []float64
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	run := func(v []float64, n int, ascending bool) {
		for i := 0; i < n; i++ {
			rows = append(rows, v)
			t := rng.Float64()*1.6 - 0.3
			if ascending {
				t = float64(i)/float64(n)*1.6 - 0.3
			}
			ts = append(ts, t)
		}
	}
	first := vec()
	run(first, 8, false)
	run(vec(), 1, false)
	run(vec(), 65, false)
	pos := vec()
	pos[0] = 0
	neg := append([]float64(nil), pos...)
	neg[0] = math.Copysign(0, -1)
	run(pos, 1, false)
	run(neg, 1, false)
	for i := 0; i < maxPlanBatch; i++ {
		run(vec(), 1+i%8, true)
	}
	run(first, 3, false)
	return tensor.FromRows(rows), ts
}

type testBatch struct {
	name string
	x    *tensor.Dense
	ts   []float64
}

// testBatches returns randQueries batches of the given row counts
// followed by a ladderQueries batch, all of width dim.
func testBatches(dim int, sizes ...int) []testBatch {
	var out []testBatch
	for _, rows := range sizes {
		x, ts := randQueries(int64(rows), rows, dim)
		out = append(out, testBatch{fmt.Sprintf("random-%d", rows), x, ts})
	}
	x, ts := ladderQueries(int64(dim), dim)
	return append(out, testBatch{"ladder", x, ts})
}

// The plan path must reproduce the tape path bit for bit: same kernels,
// same order, same buffers semantics.
func TestPlanMatchesTapePath(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"softmax-tau", func(c *Config) { c.SoftmaxTau = true }},
		{"query-independent-tau", func(c *Config) { c.QueryDependentTau = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(1)
			tc.mod(&cfg)
			n := NewNet(rand.New(rand.NewSource(7)), 5, cfg)
			for _, b := range testBatches(5, 1, 2, 3, 64, 65, 200) {
				got := n.EstimateBatch(b.x, b.ts)
				want := n.estimateBatchTape(b.x, b.ts)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s row %d: plan %v, tape %v", b.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestEstimateMatchesBatch(t *testing.T) {
	n := planTestNet(1, 6)
	for _, b := range testBatches(6, 32) {
		batch := n.EstimateBatch(b.x, b.ts)
		for i := range b.ts {
			if got := n.Estimate(b.x.Row(i), b.ts[i]); got != batch[i] {
				t.Fatalf("%s row %d: Estimate %v, EstimateBatch %v", b.name, i, got, batch[i])
			}
		}
	}
}

func TestControlPointsOnPlanPath(t *testing.T) {
	n := planTestNet(3, 4)
	q := []float64{0.1, 0.7, 0.3, 0.9}
	tau, p := n.ControlPoints(q)
	if len(tau) != n.cfg.L+2 || len(p) != n.cfg.L+2 {
		t.Fatalf("lengths %d/%d, want %d", len(tau), len(p), n.cfg.L+2)
	}
	// Reference: the tape path's control points.
	tp := autodiff.NewTape()
	tauN, pN := n.controlPointsInference(tp, tp.Input(tensor.RowVector(q)))
	for i := range tau {
		if tau[i] != tauN.Value.At(0, i) || p[i] != pN.Value.At(0, i) {
			t.Fatalf("control point %d differs from tape path", i)
		}
	}
	// Monotone, τ ends at TMax — the Lemma 1 structure.
	for i := 1; i < len(tau); i++ {
		if tau[i] < tau[i-1] || p[i] < p[i-1] {
			t.Fatalf("control points not monotone at %d", i)
		}
	}
	if math.Abs(tau[len(tau)-1]-n.cfg.TMax) > 1e-9 {
		t.Fatalf("tau end %v, want TMax %v", tau[len(tau)-1], n.cfg.TMax)
	}
}

func TestPlanSurvivesRepeatedUse(t *testing.T) {
	n := planTestNet(4, 5)
	x, ts := randQueries(5, 8, 5)
	want := n.EstimateBatch(x, ts)
	for i := 0; i < 50; i++ {
		got := n.EstimateBatch(x, ts)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("call %d row %d drifted: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	// Counters merge the encoder and head pools: two checkouts per call.
	st := n.PlanStats()
	if st.Checkouts != 102 {
		t.Fatalf("checkouts = %d, want 102", st.Checkouts)
	}
	if st.Compiles != 2 {
		t.Fatalf("compiles = %d, want 2 (plans must be reused)", st.Compiles)
	}
}

func TestDropPlansRecompilesConsistently(t *testing.T) {
	n := planTestNet(6, 5)
	x, ts := randQueries(7, 4, 5)
	want := n.EstimateBatch(x, ts)
	n.DropPlans()
	got := n.EstimateBatch(x, ts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after DropPlans: %v != %v", i, got[i], want[i])
		}
	}
	if st := n.PlanStats(); st.Drops != 2 || st.Compiles != 4 {
		t.Fatalf("stats %+v, want 2 drops, 4 compiles (encoder + head pool)", st)
	}
}

// Zero steady-state allocations on the plan path — the point of the
// whole engine. Warm-up happens inside AllocsPerRun's untimed first run
// (which compiles the plans).
func TestEstimateBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	n := planTestNet(8, 16)
	for _, b := range testBatches(16, 1, 64) {
		out := make([]float64, len(b.ts))
		n.EstimateBatchInto(out, b.x, b.ts) // compile outside the measurement
		if got := testing.AllocsPerRun(100, func() {
			n.EstimateBatchInto(out, b.x, b.ts)
		}); got != 0 {
			t.Fatalf("%s EstimateBatchInto allocates %v per run, want 0", b.name, got)
		}
	}
	q := make([]float64, 16)
	if got := testing.AllocsPerRun(100, func() {
		n.Estimate(q, 0.5)
	}); got != 0 {
		t.Fatalf("Estimate allocates %v per run, want 0", got)
	}
}

func TestPartitionedEstimateBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	db, wl := testWorkload(31, 300, 8, 8, 4)
	p := NewPartitioned(rand.New(rand.NewSource(32)), db, tinyPartitionedConfig(wl.TMax))
	for _, b := range testBatches(8, 1, 64) {
		for i := range b.ts {
			b.ts[i] *= wl.TMax
		}
		out := make([]float64, len(b.ts))
		p.EstimateBatchInto(out, b.x, b.ts)
		if got := testing.AllocsPerRun(100, func() {
			p.EstimateBatchInto(out, b.x, b.ts)
		}); got != 0 {
			t.Fatalf("%s partitioned EstimateBatchInto allocates %v per run, want 0", b.name, got)
		}
	}
	q := make([]float64, 8)
	p.Estimate(q, wl.TMax/2)
	if got := testing.AllocsPerRun(100, func() {
		p.Estimate(q, wl.TMax/2)
	}); got != 0 {
		t.Fatalf("partitioned Estimate allocates %v per run, want 0", got)
	}
}

// The fuse pass (internal/infer fuse.go) rewrites each nn.Linear layer's
// MatMul+AddRow+activation into one GEMM step. Pin the step counts of
// the encoder and head plans of the two model shapes selbench serves —
// ct, a 64-d Net, and part, a K = 3 Partitioned over the same
// architecture — so losing fusion fails here, not in a timing gate.
// tensor_noopt builds skip the pass by design and pin the unfused counts.
func TestPlanStepsFused(t *testing.T) {
	wantEnc, wantHead := 4, 14
	if !tensor.Optimized() {
		wantEnc, wantHead = 9, 26
	}
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFasttext(rng, 300, 64, distance.Euclidean)
	cfg := DefaultConfig()
	cfg.TMax = 1
	pcfg := DefaultPartitionedConfig()
	pcfg.Model = cfg
	shapes := []struct {
		name string
		ps   *plans
	}{
		{"ct", NewNet(rng, 64, cfg).planState()},
		{"part", NewPartitioned(rng, db, pcfg).planState()},
	}
	for _, s := range shapes {
		if len(s.ps.heads) == 0 {
			t.Fatalf("%s: no head plans", s.name)
		}
		for _, batch := range []int{1, maxPlanBatch} {
			enc := s.ps.enc.Get(batch)
			if got := enc.Steps(); got != wantEnc {
				t.Errorf("%s batch %d: encoder plan has %d steps, want %d", s.name, batch, got, wantEnc)
			}
			s.ps.enc.Put(enc)
			for ci, pool := range s.ps.heads {
				h := pool.Get(batch)
				if got := h.Steps(); got != wantHead {
					t.Errorf("%s batch %d: head %d plan has %d steps, want %d", s.name, batch, ci, got, wantHead)
				}
				pool.Put(h)
			}
		}
	}
}

// The partitioned plan path must match the definition: the indicator-
// gated sum of the local (tape-path) estimates.
func TestPartitionedPlanMatchesLocalTapes(t *testing.T) {
	db, wl := testWorkload(33, 250, 6, 8, 4)
	p := NewPartitioned(rand.New(rand.NewSource(34)), db, tinyPartitionedConfig(wl.TMax))
	for _, b := range testBatches(6, 40) {
		x, ts := b.x, b.ts
		for i := range ts {
			ts[i] *= wl.TMax
		}
		got := p.EstimateBatch(x, ts)
		for i := range ts {
			ind := p.part.Indicator(x.Row(i), ts[i])
			tc := clamp(ts[i], 0, p.pcfg.Model.TMax)
			var want float64
			for ci, active := range ind {
				if !active {
					continue
				}
				want += p.locals[ci].estimateBatchTape(tensor.RowVector(x.Row(i)), []float64{tc})[0]
			}
			if math.Abs(got[i]-want) > 1e-12 {
				t.Fatalf("%s row %d: plan %v, local tapes %v", b.name, i, got[i], want)
			}
			if e := p.Estimate(x.Row(i), ts[i]); e != got[i] {
				t.Fatalf("%s row %d: Estimate %v != EstimateBatch %v", b.name, i, e, got[i])
			}
		}
	}
}

// Concurrent estimates racing DropPlans (the hot-swap invalidation)
// must stay correct: parameters never change here, so every result must
// equal the reference regardless of which compiled generation served
// it. Run with -race in CI.
func TestConcurrentEstimateDuringDropPlans(t *testing.T) {
	n := planTestNet(9, 8)
	x, ts := randQueries(10, 16, 8)
	want := n.estimateBatchTape(x, ts)
	stop := make(chan struct{})
	var dropper sync.WaitGroup
	dropper.Add(1)
	go func() {
		defer dropper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.DropPlans()
			}
		}
	}()
	var estimators sync.WaitGroup
	for g := 0; g < 4; g++ {
		estimators.Add(1)
		go func(seed int) {
			defer estimators.Done()
			out := make([]float64, len(ts))
			for i := 0; i < 200; i++ {
				n.EstimateBatchInto(out, x, ts)
				for j := range want {
					if out[j] != want[j] {
						t.Errorf("goroutine %d call %d row %d: %v != %v", seed, i, j, out[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	estimators.Wait()
	close(stop)
	dropper.Wait()
}

// ----------------------------------------------------------------------------
// Tape-vs-plan benchmarks: the acceptance numbers for the plan engine.

func benchPlanNet() *Net {
	cfg := DefaultConfig()
	cfg.TMax = 1
	return NewNet(rand.New(rand.NewSource(1)), 16, cfg)
}

func BenchmarkNetEstimatePlan(b *testing.B) {
	n := benchPlanNet()
	q := make([]float64, 16)
	for i := range q {
		q[i] = rand.New(rand.NewSource(2)).Float64()
	}
	n.Estimate(q, 0.5) // compile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Estimate(q, 0.5)
	}
}

// BenchmarkNetEstimatePlanKernels runs the single-query plan path with
// per-kernel timing enabled and reports each kernel's attributed time
// and call count as custom metrics (kernel:<name>:ns/op,
// kernel:<name>:calls/op) that benchjson folds into the kernel_timings
// section of BENCH_infer.json. Also guards that the timed path itself
// stays allocation-free.
func BenchmarkNetEstimatePlanKernels(b *testing.B) {
	n := benchPlanNet()
	q := make([]float64, 16)
	for i := range q {
		q[i] = rand.New(rand.NewSource(2)).Float64()
	}
	n.Estimate(q, 0.5) // compile
	infer.SetKernelTiming(true)
	defer infer.SetKernelTiming(false)
	infer.ResetKernelStats() // per-trial: the fn is re-invoked for each b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Estimate(q, 0.5)
	}
	b.StopTimer()
	for _, k := range infer.KernelStats() {
		if k.Calls == 0 {
			continue
		}
		b.ReportMetric(float64(k.Nanos)/float64(b.N), "kernel:"+k.Kernel+":ns/op")
		b.ReportMetric(float64(k.Calls)/float64(b.N), "kernel:"+k.Kernel+":calls/op")
	}
}

func BenchmarkNetEstimateTape(b *testing.B) {
	n := benchPlanNet()
	x, _ := randQueries(2, 1, 16)
	ts := []float64{0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.estimateBatchTape(x, ts)
	}
}

func BenchmarkNetEstimateBatch64Plan(b *testing.B) {
	n := benchPlanNet()
	x, ts := randQueries(3, 64, 16)
	out := make([]float64, 64)
	n.EstimateBatchInto(out, x, ts) // compile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.EstimateBatchInto(out, x, ts)
	}
}

func BenchmarkNetEstimateBatch64Tape(b *testing.B) {
	n := benchPlanNet()
	x, ts := randQueries(3, 64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.estimateBatchTape(x, ts)
	}
}

// BenchmarkPartitionedEstimateBatchLadder is selbench's batch_scan
// request in process: 32 query vectors x 8 ascending thresholds, rows
// of one vector adjacent, dim 64, on a default-sized K=3 partitioned
// model — the ladder shape EstimateBatchInto evaluates once per vector.
func BenchmarkPartitionedEstimateBatchLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFasttext(rng, 2000, 64, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, 32, 8)
	pcfg := DefaultPartitionedConfig()
	pcfg.Model.TMax = wl.TMax
	p := NewPartitioned(rng, db, pcfg)
	x, tcol, _ := vecdata.Matrices(wl.Queries)
	ts := tcol.Data()
	out := make([]float64, len(ts))
	p.EstimateBatchInto(out, x, ts) // compile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EstimateBatchInto(out, x, ts)
	}
}
