package selnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"selnet/internal/autodiff"
	"selnet/internal/distance"
	"selnet/internal/infer"
	"selnet/internal/partition"
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

// TestPartitionedEstimateBatchZeroAllocs pins the partitioned model on
// both metrics: a cosine model normalizes each query into a pooled
// buffer before gating (Partitioning.query), and the experiments'
// "SelNet" is a K = 3 cover-tree Partitioned on cosine data.
func TestPartitionedEstimateBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		t.Run(dist.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			db := vecdata.SyntheticFasttext(rng, 300, 8, dist)
			wl := vecdata.GeometricWorkload(rng, db, 8, 4)
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
			q := wl.Queries[0]
			p.Estimate(q.X, q.T)
			if got := testing.AllocsPerRun(100, func() {
				p.Estimate(q.X, q.T)
			}); got != 0 {
				t.Fatalf("partitioned Estimate allocates %v per run, want 0", got)
			}
		})
	}
}

// The kernel-timed plan path (selestd -kernel-timing) reads the clock
// around every step and bumps per-kernel counters; it must stay
// allocation-free like the untimed one.
func TestEstimateKernelTimingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	n := benchPlanNet()
	q := make([]float64, 16)
	for i := range q {
		q[i] = float64(i) / 16
	}
	n.Estimate(q, 0.5) // compile
	defer infer.SetKernelTiming(infer.KernelTimingEnabled())
	infer.SetKernelTiming(true)
	infer.ResetKernelStats()
	if got := testing.AllocsPerRun(100, func() {
		n.Estimate(q, 0.5)
	}); got != 0 {
		t.Fatalf("kernel-timed Estimate allocates %v per run, want 0", got)
	}
	var calls uint64
	for _, k := range infer.KernelStats() {
		calls += k.Calls
	}
	if calls == 0 {
		t.Fatal("no kernel was timed")
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
// The lazy gate against the eager per-row gate.

// eagerRun is the estimate loop with the gate decided eagerly: every
// row's indicator is computed before any head runs, and a row adds its
// head's positive value wherever its own indicator is active. It is the
// reference plans.run's lazy gate must match bit for bit, and it returns
// the exact ball tests it made.
func eagerRun(ps *plans, out []float64, x *tensor.Dense, ts []float64) (tests int) {
	k := len(ps.heads)
	ends := make([]int, maxPlanBatch)
	runActive := make([]bool, maxPlanBatch*k)
	qbuf := make([]float64, ps.dim)
	for start := 0; start < x.Rows(); {
		runs := ladderRuns(ends, x, start)
		end := ends[runs-1]
		active := make([]bool, (end-start)*k)
		encPl := ps.enc.Get(runs)
		row := start
		for r := 0; r < runs; r++ {
			copy(encPl.X.Row(r), x.Row(row))
			ra := runActive[r*k : (r+1)*k]
			clear(ra)
			for ; row < ends[r]; row++ {
				act := active[(row-start)*k : (row-start+1)*k]
				tests += ps.part.IndicatorInto(act, qbuf, x.Row(row), ts[row])
				for ci, a := range act {
					ra[ci] = ra[ci] || a
				}
				out[row] = 0
			}
		}
		encPl.Run()
		for ci, heads := range ps.heads {
			var gather []int
			for r := 0; r < runs; r++ {
				if runActive[r*k+ci] {
					gather = append(gather, r)
				}
			}
			if len(gather) == 0 {
				continue
			}
			hp := heads.Get(len(gather))
			for j, r := range gather {
				copy(hp.X.Row(j), encPl.Out.Row(r))
			}
			hp.Run()
			for j, r := range gather {
				tau, pp := hp.Tau.Row(j), hp.P.Row(j)
				row := start
				if r > 0 {
					row = ends[r-1]
				}
				for ; row < ends[r]; row++ {
					if !active[(row-start)*k+ci] {
						continue
					}
					if v := autodiff.PWLAt(tau, pp, clamp(ts[row], 0, ps.tmax)); v > 0 {
						out[row] += v
					}
				}
			}
			heads.Put(hp)
		}
		ps.enc.Put(encPl)
		start = end
	}
	return tests
}

// planned is what the gate tests need of either model type.
type planned interface {
	planState() *plans
	Estimate(x []float64, t float64) float64
	EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64)
}

// checkGate fails t unless EstimateBatchInto, and Estimate on the rows
// picked by single, equal eagerRun bit for bit on (x, ts). It returns the
// exact ball tests of the lazy and the eager gate.
func checkGate(t *testing.T, tag string, m planned, x *tensor.Dense, ts []float64, single func(row int) bool) (lazy, eager int) {
	t.Helper()
	ps := m.planState()
	want := make([]float64, len(ts))
	eager = eagerRun(ps, want, x, ts)
	got := make([]float64, len(ts))
	m.EstimateBatchInto(got, x, ts)
	counted := make([]float64, len(ts))
	sc := ps.scratch.Get().(*planScratch)
	lazy = ps.run(sc, counted, x, ts)
	ps.scratch.Put(sc)
	one := make([]float64, 1)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(counted[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s row %d (t %v): lazy gate %v (counted run %v), eager gate %v", tag, i, ts[i], got[i], counted[i], want[i])
		}
		if !single(i) {
			continue
		}
		eagerRun(ps, one, tensor.RowVector(x.Row(i)), ts[i:i+1])
		if e := m.Estimate(x.Row(i), ts[i]); math.Float64bits(e) != math.Float64bits(one[0]) {
			t.Fatalf("%s row %d (t %v): Estimate %v, eager gate %v", tag, i, ts[i], e, one[0])
		}
	}
	return lazy, eager
}

// gateThresholds returns thresholds for a ladder of x on p: the special
// values (NaN, ±Inf, negative, ±0), random ones up to 1.3·tmax, and for
// each ball the threshold at which it starts to meet the query ball,
// fl(L2(x, c) − r), with its Nextafter neighbours (converted back to a
// cosine threshold on cosine datasets).
func gateThresholds(rng *rand.Rand, part *partition.Partitioning, x []float64, tmax float64, cosine bool) []float64 {
	ts := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300, math.Copysign(0, -1), 0, tmax, 2 * tmax}
	for i := 0; i < 8; i++ {
		ts = append(ts, rng.Float64()*1.3*tmax)
	}
	qx := x
	if cosine {
		qx = distance.Normalize(x)
	}
	for _, c := range part.Clusters {
		for bi, b := range c.Balls {
			if bi%5 != 0 {
				continue
			}
			edge := distance.L2(qx, b.Center) - b.Radius
			for _, e := range []float64{math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1))} {
				if cosine {
					e = distance.L2ToCosineThreshold(math.Max(e, 0))
				}
				ts = append(ts, e)
			}
		}
	}
	return ts
}

// gateLadders builds one batch per threshold order (ascending,
// descending, shuffled): each vector of vecs is a run of up to 12 rows
// drawn from gateThresholds.
func gateLadders(rng *rand.Rand, part *partition.Partitioning, vecs [][]float64, tmax float64, cosine bool) []testBatch {
	var out []testBatch
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		var rows [][]float64
		var ts []float64
		for _, v := range vecs {
			pool := gateThresholds(rng, part, v, tmax, cosine)
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			run := pool[:1+rng.Intn(min(12, len(pool)))]
			switch order {
			case "ascending":
				sort.Float64s(run)
			case "descending":
				sort.Sort(sort.Reverse(sort.Float64Slice(run)))
			}
			for _, t := range run {
				rows = append(rows, v)
				ts = append(ts, t)
			}
		}
		out = append(out, testBatch{order, tensor.FromRows(rows), ts})
	}
	return out
}

// The lazy gate answers exactly as the eager per-row gate: for every
// metric, partitioning method and K, over ascending, descending and
// shuffled ladders holding NaN, ±Inf, negative, zero and ball-edge
// thresholds, and for single-row Estimate; the Net's always-active
// gate is covered too.
func TestLazyGateMatchesEagerGate(t *testing.T) {
	var lazyTotal, eagerTotal int
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		rng := rand.New(rand.NewSource(41))
		db := vecdata.SyntheticFasttext(rng, 300, 6, dist)
		wl := vecdata.GeometricWorkload(rng, db, 24, 4)
		vecs := [][]float64{make([]float64, 6)}
		for i := 0; i < len(wl.Queries); i += 4 {
			vecs = append(vecs, wl.Queries[i].X)
		}
		for _, method := range []partition.Method{partition.Random, partition.CoverTree, partition.KMeans} {
			for _, k := range []int{1, 3} {
				tag := fmt.Sprintf("%s/%s/K=%d", method, dist, k)
				pcfg := tinyPartitionedConfig(wl.TMax)
				pcfg.Method, pcfg.K = method, k
				p := NewPartitioned(rand.New(rand.NewSource(42)), db, pcfg)
				batches := gateLadders(rng, p.part, vecs, wl.TMax, dist == distance.Cosine)
				b := testBatches(6, 40)[1]
				for i := range b.ts {
					b.ts[i] *= wl.TMax
				}
				for _, b := range append(batches, b) {
					l, e := checkGate(t, tag+"/"+b.name, p, b.x, b.ts, func(row int) bool { return row%3 == 0 })
					lazyTotal += l
					eagerTotal += e
				}
			}
		}
	}
	n := planTestNet(43, 6)
	for _, b := range gateLadders(rand.New(rand.NewSource(44)), alwaysActive, [][]float64{make([]float64, 6), {1, 2, 3, 4, 5, 6}}, 1, false) {
		checkGate(t, "net/"+b.name, n, b.x, b.ts, func(int) bool { return true })
	}
	t.Logf("exact ball tests: lazy %d, eager %d", lazyTotal, eagerTotal)
}

// TestLazyGateBallTests pins the work the lazy gate saves on the
// fixture of BenchmarkPartitionedEstimateBatchLadder (selbench's
// batch_scan request in process: 32 vectors x 8 ascending thresholds,
// 64-d, K = 3 cover-tree partitioning) after a short Fit: a ladder's
// t = 0 rows meet heads that answer 0, and its other rows sit at or
// above a threshold already proven active.
func TestLazyGateBallTests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFasttext(rng, 2000, 64, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, 32, 8)
	pcfg := DefaultPartitionedConfig()
	pcfg.Model.TMax = wl.TMax
	pcfg.PretrainEpochs = 2
	p := NewPartitioned(rng, db, pcfg)
	tc := DefaultTrainConfig()
	tc.Epochs, tc.AEPretrainEpochs, tc.AEPretrainSample = 5, 2, 500
	p.Fit(tc, db, wl.Queries, nil)
	x, tcol, _ := vecdata.Matrices(wl.Queries)
	lazy, eager := checkGate(t, "ladder", p, x, tcol.Data(), func(int) bool { return false })
	t.Logf("%d rows: %d exact ball tests, eager gate %d", len(wl.Queries), lazy, eager)
	if lazy*3 > eager {
		t.Fatalf("%d exact ball tests, eager gate %d: want at least 3x fewer", lazy, eager)
	}
}

// gateFuzzModels are the fuzz target's models: K = 3 partitioned models
// over 4-d data, a Euclidean cover tree and a cosine k-means, with the
// vectors its inputs draw from (a zero vector, workload queries, a ball
// center and a far point).
func gateFuzzModels() (models []*Partitioned, vecs [][][]float64, tmax []float64) {
	for _, c := range []struct {
		dist   distance.Func
		method partition.Method
	}{{distance.Euclidean, partition.CoverTree}, {distance.Cosine, partition.KMeans}} {
		rng := rand.New(rand.NewSource(51))
		db := vecdata.SyntheticFasttext(rng, 200, 4, c.dist)
		wl := vecdata.GeometricWorkload(rng, db, 8, 2)
		pcfg := tinyPartitionedConfig(wl.TMax)
		pcfg.Method = c.method
		p := NewPartitioned(rng, db, pcfg)
		vs := [][]float64{make([]float64, 4)}
		for i := 0; i < 5; i++ {
			vs = append(vs, wl.Queries[2*i].X)
		}
		center := p.part.Clusters[0].Balls[0].Center
		far := make([]float64, 4)
		for i, v := range center {
			far[i] = 100*v + 1
		}
		models = append(models, p)
		vecs = append(vecs, append(vs, center, far))
		tmax = append(tmax, wl.TMax)
	}
	return models, vecs, tmax
}

// decodeGateLadder turns fuzz bytes into a batch: each byte is one row.
// Bit 7 starts a new run on vector (b>>4)&7 (a repeat of the previous
// vector extends its run); the low nibble picks the threshold: NaN, ±Inf,
// −1, −0, 0, free, or k/6·tmax for k = 0..8.
func decodeGateLadder(data []byte, vecs [][]float64, tmax, free float64) (*tensor.Dense, []float64) {
	if len(data) > 300 {
		data = data[:300]
	}
	var rows [][]float64
	var ts []float64
	v := -1
	for _, b := range data {
		if b&0x80 != 0 || v < 0 {
			v = int(b>>4) & 7
		}
		var t float64
		switch n := int(b & 15); n {
		case 0:
			t = math.NaN()
		case 1:
			t = math.Inf(1)
		case 2:
			t = math.Inf(-1)
		case 3:
			t = -1
		case 4:
			t = math.Copysign(0, -1)
		case 5:
			t = 0
		case 6:
			t = free
		default:
			t = float64(n-7) / 6 * tmax
		}
		rows = append(rows, vecs[v])
		ts = append(ts, t)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return tensor.FromRows(rows), ts
}

// FuzzGateMatchesPerRow checks the lazy gate against the eager per-row
// gate on decoded ladders of any threshold order.
func FuzzGateMatchesPerRow(f *testing.F) {
	models, vecs, tmax := gateFuzzModels()
	ascending := []byte{0x95, 0x17, 0x18, 0x19, 0x1b, 0x1d, 0x1f}
	f.Add(ascending, 0.0)
	f.Add([]byte{0xaf, 0x2e, 0x2c, 0x2a, 0x28, 0x25, 0x24, 0x23}, 0.0)
	f.Add([]byte{0xc9, 0x40, 0x41, 0x42, 0x4b, 0x46, 0x47, 0xd8, 0xe0, 0xf1, 0x8f}, 1e-300)
	f.Add(append(append([]byte{}, ascending...), 0xf6, 0x76, 0x8e, 0xb6), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, free float64) {
		for mi, p := range models {
			x, ts := decodeGateLadder(data, vecs[mi], tmax[mi], free)
			if x == nil {
				return
			}
			checkGate(t, fmt.Sprintf("model %d", mi), p, x, ts, func(row int) bool { return row < 4 })
		}
	})
}

// ----------------------------------------------------------------------------
// Tape-vs-plan benchmarks: the acceptance numbers for the plan engine.

func benchPlanNet() *Net {
	cfg := DefaultConfig()
	cfg.TMax = 1
	return NewNet(rand.New(rand.NewSource(1)), 16, cfg)
}

// benchPlanQuery is a 16-d query with components drawn from one seeded
// generator.
func benchPlanQuery() []float64 {
	rng := rand.New(rand.NewSource(2))
	q := make([]float64, 16)
	for i := range q {
		q[i] = rng.Float64()
	}
	return q
}

func BenchmarkNetEstimatePlan(b *testing.B) {
	n := benchPlanNet()
	q := benchPlanQuery()
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
// kernel:<name>:calls/op). TestEstimateKernelTimingZeroAllocs pins the
// timed path's allocations.
func BenchmarkNetEstimatePlanKernels(b *testing.B) {
	n := benchPlanNet()
	q := benchPlanQuery()
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

// TestLadderRunsComparesBits pins ladderRuns' equality: adjacent rows
// join a run only when every component has the same bits, so -0 splits
// from +0, a NaN joins only a NaN with its own bits, and ends caps the
// number of runs.
func TestLadderRunsComparesBits(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	negZero := math.Copysign(0, -1)
	rows := [][]float64{
		{1, 0}, {1, 0}, {1, negZero}, // +0 and -0 differ
		{nan1, 2}, {nan1, 2}, {nan2, 2}, // NaNs match only bit for bit
		{3, 3},
	}
	x := tensor.New(len(rows), 2)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	ends := make([]int, 8)
	if got, want := ends[:ladderRuns(ends, x, 0)], []int{2, 3, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("run ends %v, want %v", got, want)
	}
	if got, want := ends[:ladderRuns(ends[:2], x, 3)], []int{5, 6}; !slices.Equal(got, want) {
		t.Fatalf("capped run ends from row 3: %v, want %v", got, want)
	}
}
