package serve_test

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"selnet/internal/distance"
	"selnet/internal/estimator"
	"selnet/internal/ingest"
	"selnet/internal/modelcodec"
	"selnet/internal/modeltest"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// TestEstimatorConformance holds every kind the codec registers to the
// estimator contract, then to the property of each capability the kind
// implements. The contract: estimates never decrease as t grows (the
// paper's consistency, with no per-kind exemptions), scalar and batch
// estimation agree bit for bit, the self-reported shape is sane, and
// concurrent reads are race-free (the registry hot-swaps models under
// live traffic, so published estimators must be immutable). Adding a
// kind to modeltest.Builders enrolls it; implementing a capability
// enrolls the kind in that capability's check.
func TestEstimatorConformance(t *testing.T) {
	builders := modeltest.Builders()
	for _, kind := range slices.Sorted(maps.Keys(builders)) {
		t.Run(kind, func(t *testing.T) {
			est := builders[kind]()
			checkContract(t, est)
			for _, c := range capabilities {
				if c.has(est) {
					t.Run(c.name, func(t *testing.T) { c.check(t, est) })
				}
			}
		})
	}
}

// capabilities pairs each optional capability with the property an
// implementation must have.
var capabilities = []struct {
	name  string
	has   func(estimator.Estimator) bool
	check func(*testing.T, estimator.Estimator)
}{
	{"Consistent", is[estimator.Consistent], checkConsistent},
	{"BatchInto", is[estimator.BatchInto], checkBatchInto},
	{"Cloner", is[estimator.Cloner], checkClone},
	{"Refresher", is[estimator.Refresher], checkRefresh},
	{"Updatable", is[ingest.Updatable], checkUpdate},
}

func is[C any](est estimator.Estimator) bool {
	_, ok := est.(C)
	return ok
}

// checkContract checks what every servable estimator promises.
func checkContract(t *testing.T, est estimator.Estimator) {
	// Shape sanity: the registry and router both trust these.
	if est.Name() == "" {
		t.Error("Name() is empty")
	}
	if d := est.Dim(); d <= 0 {
		t.Fatalf("Dim() = %d, want > 0", d)
	}
	if tm := est.TMax(); tm <= 0 || math.IsNaN(tm) || math.IsInf(tm, 0) {
		t.Fatalf("TMax() = %g, want finite > 0", tm)
	}
	// The codec serves consistent kinds only.
	if !is[estimator.Consistent](est) {
		t.Errorf("%s does not implement estimator.Consistent", est.Name())
	}

	// EstimateBatch must agree with the scalar path bit for bit, on the
	// grid and along the ladders: the server batches transparently, and
	// grouping rows by vector is an evaluation strategy, never a change
	// in the answer.
	x, ts := probes(est)
	scalar := make([]float64, len(ts))
	for i := range ts {
		y := est.Estimate(x.Row(i), ts[i])
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("Estimate(%v, %g) = %g, want finite", x.Row(i), ts[i], y)
		}
		scalar[i] = y
	}
	sameBits(t, "EstimateBatch vs Estimate", est.EstimateBatch(x, ts), scalar)

	// Concurrent reads must be race-free (run under -race in CI).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := (w*20 + i) % len(ts)
				if y := est.Estimate(x.Row(r), ts[r]); math.IsNaN(y) {
					t.Errorf("concurrent Estimate returned NaN")
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				est.EstimateBatch(x, ts)
			}
		}()
	}
	wg.Wait()
}

// checkConsistent: the kind reports its guarantee, and both paths keep
// it along each ladder.
func checkConsistent(t *testing.T, est estimator.Estimator) {
	if !estimator.IsConsistent(est) {
		t.Errorf("%s reports ConsistencyGuaranteed() false", est.Name())
	}
	assertMonotone(t, est)
}

// checkBatchInto: the allocation-free batch equals EstimateBatch bit for
// bit and writes every row of a dirty buffer.
func checkBatchInto(t *testing.T, est estimator.Estimator) {
	x, ts := probes(est)
	out := make([]float64, len(ts))
	for i := range out {
		out[i] = math.NaN()
	}
	est.(estimator.BatchInto).EstimateBatchInto(out, x, ts)
	sameBits(t, "EstimateBatchInto vs EstimateBatch", out, est.EstimateBatch(x, ts))
}

// checkClone: the clone answers exactly as the original, and dropping
// the clone's plans leaves the original's answers unchanged.
func checkClone(t *testing.T, est estimator.Estimator) {
	want := answers(est)
	c := clone(t, est)
	sameBits(t, "clone vs original", answers(c), want)
	if d, ok := c.(estimator.PlanDropper); ok {
		d.DropPlans()
	}
	sameBits(t, "original after the clone's DropPlans", answers(est), want)
}

// checkRefresh: a clone bound to a grown database and refreshed stays
// monotone in t, and the original's answers do not move.
func checkRefresh(t *testing.T, est estimator.Estimator) {
	want := answers(est)
	r := clone(t, est).(estimator.Refresher)
	// Refreshable kinds are SimHash samplers, which need cosine data.
	db, _ := modeltest.Workload(distance.Cosine, 200, est.Dim(), 0)
	db.Insert(grow(db, 40)...)
	if err := r.BindDB(db); err != nil {
		t.Fatalf("BindDB: %v", err)
	}
	r.Refresh()
	if ds, ok := r.(estimator.DataSizer); ok && ds.DataSize() != db.Size() {
		t.Errorf("DataSize() = %d after refresh, want %d", ds.DataSize(), db.Size())
	}
	assertMonotone(t, r)
	sameBits(t, "original after the clone's refresh", answers(est), want)
}

// checkUpdate: a clone run through the Sec. 5.4 update on a grown
// database (retraining forced) stays monotone in t, answers exactly the
// same after a save/load round trip, and leaves the original's answers
// unchanged.
func checkUpdate(t *testing.T, est estimator.Estimator) {
	want := answers(est)
	u := clone(t, est).(ingest.Updatable)
	db, qs := modeltest.Workload(distance.Euclidean, 240, est.Dim(), 24)
	ins := grow(db, 24)
	if ba, ok := u.(estimator.BulkApplier); ok {
		ba.ApplyInsert(ins)
	}
	db.Insert(ins...)
	tc := selnet.TrainConfig{Epochs: 1, Batch: 32, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3, Seed: 1}
	uc := selnet.UpdateConfig{DeltaU: -1, Patience: 1, MaxEpochs: 2}
	cut := len(qs) * 3 / 4
	if res := u.HandleUpdate(tc, uc, db, qs[:cut], qs[cut:]); !res.Retrained {
		t.Errorf("HandleUpdate with δ_U = -1 did not retrain: %+v", res)
	}
	assertMonotone(t, u)

	var buf bytes.Buffer
	if err := modelcodec.Save(&buf, u); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := modelcodec.Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sameBits(t, "reloaded vs updated", answers(loaded), answers(u))
	sameBits(t, "original after the clone's update", answers(est), want)
}

func clone(t *testing.T, est estimator.Estimator) estimator.Estimator {
	t.Helper()
	c, err := est.(estimator.Cloner).CloneEstimator()
	if err != nil {
		t.Fatalf("CloneEstimator: %v", err)
	}
	return c
}

// probes stacks the threshold ladders of serve.LadderProbes on a grid of
// five vectors at five thresholds, including the t = 0 and t = TMax
// edges.
func probes(est estimator.Estimator) (*tensor.Dense, []float64) {
	dim, tmax := est.Dim(), est.TMax()
	lx, ts := serve.LadderProbes(dim, tmax)
	rows := make([][]float64, 0, lx.Rows()+25)
	for i := 0; i < lx.Rows(); i++ {
		rows = append(rows, lx.Row(i))
	}
	for i := 0; i < 5; i++ {
		q := make([]float64, dim)
		for j := range q {
			// Deterministic, varied, includes negatives.
			q[j] = math.Sin(float64(i*dim+j)+0.5) * 0.8
		}
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			rows = append(rows, q)
			ts = append(ts, tmax*f)
		}
	}
	return tensor.FromRows(rows), ts
}

// answers evaluates est on the probes through both paths.
func answers(est estimator.Estimator) []float64 {
	x, ts := probes(est)
	out := est.EstimateBatch(x, ts)
	for i := range ts {
		out = append(out, est.Estimate(x.Row(i), ts[i]))
	}
	return out
}

func assertMonotone(t *testing.T, est estimator.Estimator) {
	t.Helper()
	x, ts := probes(est)
	scalar := make([]float64, len(ts))
	for i := range ts {
		scalar[i] = est.Estimate(x.Row(i), ts[i])
	}
	serve.AssertMonotoneInT(t, "Estimate", x, ts, scalar)
	serve.AssertMonotoneInT(t, "EstimateBatch", x, ts, est.EstimateBatch(x, ts))
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: row %d = %g, want %g", what, i, got[i], want[i])
			return
		}
	}
}

// grow returns n new vectors near db's first n, to insert.
func grow(db *vecdata.Database, n int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, db.Dim)
		for j, v := range db.Vecs[i] {
			vecs[i][j] = v + 1e-3*float64(j+1)
		}
	}
	return vecs
}
