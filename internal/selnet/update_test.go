package selnet

import (
	"math"
	"math/rand"
	"testing"

	"selnet/internal/vecdata"
)

func TestHandleUpdateSkipsMinorChanges(t *testing.T) {
	db, wl := testWorkload(40, 400, 5, 20, 5)
	rng := rand.New(rand.NewSource(41))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 8
	net.Fit(tc, db, train, valid)

	// No actual change to db: labels refresh to the same values, so the
	// MAE delta is 0 and the handler must skip retraining.
	uc := DefaultUpdateConfig()
	res := net.HandleUpdate(tc, uc, db, train, valid)
	if res.Retrained {
		t.Fatalf("no-op update must not retrain")
	}
	if res.EpochsRun != 0 {
		t.Fatalf("no-op update ran %d epochs", res.EpochsRun)
	}
}

// TestHandleUpdateBaselineSkipsStaleMAE pins the δ_U prologue's cost on
// the no-retrain branch: with a baseline MAE given, the handler scores
// valid once (refreshed labels), not twice, and answers the same.
func TestHandleUpdateBaselineSkipsStaleMAE(t *testing.T) {
	db, wl := testWorkload(44, 200, 4, 10, 4)
	rng := rand.New(rand.NewSource(45))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	rowsOf := func(uc UpdateConfig) (uint64, UpdateResult) {
		before := net.PlanStats().Rows
		res := net.HandleUpdate(tc, uc, db, train, valid)
		if res.Retrained {
			t.Fatalf("deltaU %g must suppress retraining", uc.DeltaU)
		}
		return net.PlanStats().Rows - before, res
	}
	without, resWithout := rowsOf(UpdateConfig{DeltaU: 1e9})
	with, resWith := rowsOf(UpdateConfig{DeltaU: 1e9, BaselineMAE: 1})
	if with == 0 || 2*with != without {
		t.Fatalf("plan rows: %d with a baseline, %d without; want exactly half", with, without)
	}
	if resWith != resWithout {
		t.Fatalf("result with a baseline %+v, without %+v", resWith, resWithout)
	}
}

func TestHandleUpdateRetrainsOnLargeChanges(t *testing.T) {
	db, wl := testWorkload(42, 400, 5, 20, 5)
	rng := rand.New(rand.NewSource(43))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 8
	net.Fit(tc, db, train, valid)

	// Massive insertion: duplicate half the database, roughly multiplying
	// selectivities by 1.5x — far beyond any reasonable deltaU.
	ins := make([][]float64, 0, db.Size()/2)
	for i := 0; i < db.Size()/2; i++ {
		ins = append(ins, append([]float64(nil), db.Vecs[i]...))
	}
	db.Insert(ins...)
	uc := UpdateConfig{DeltaU: 0.5, Patience: 2, MaxEpochs: 6}
	res := net.HandleUpdate(tc, uc, db, train, valid)
	if !res.Retrained {
		t.Fatalf("large update must trigger retraining")
	}
	if res.EpochsRun < 1 {
		t.Fatalf("retraining ran no epochs")
	}
	if res.MAEAfter > res.MAEBefore {
		t.Fatalf("incremental training worsened MAE: %v -> %v", res.MAEBefore, res.MAEAfter)
	}
	// Labels must now reflect the enlarged database.
	for _, q := range valid[:3] {
		if got := db.Selectivity(q.X, q.T); got != q.Y {
			t.Fatalf("validation labels stale after update")
		}
	}
}

func TestPartitionedHandleUpdate(t *testing.T) {
	db, wl := testWorkload(44, 300, 4, 12, 4)
	rng := rand.New(rand.NewSource(45))
	train, valid, _ := wl.Split(rng)
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 6
	p.Fit(tc, db, train, valid)

	// No-op: skip. The duplicate insert below shifts validation MAE by
	// ~1.0, so the threshold must sit clearly under it — not at it —
	// or the decision hangs on the last ulp of the MAE sum.
	uc := UpdateConfig{DeltaU: 0.5, Patience: 2, MaxEpochs: 4}
	res := p.HandleUpdate(tc, uc, db, train, valid)
	if res.Retrained {
		t.Fatalf("no-op update must not retrain the partitioned model")
	}

	// Real update: insert duplicates, register them, expect retraining.
	ins := make([][]float64, 0, db.Size()/2)
	for i := 0; i < db.Size()/2; i++ {
		ins = append(ins, append([]float64(nil), db.Vecs[i]...))
	}
	db.Insert(ins...)
	p.ApplyInsert(ins)
	res2 := p.HandleUpdate(tc, uc, db, train, valid)
	if !res2.Retrained {
		t.Fatalf("large update must retrain the partitioned model")
	}
	if res2.MAEAfter > res2.MAEBefore {
		t.Fatalf("partitioned incremental training worsened MAE: %v -> %v",
			res2.MAEBefore, res2.MAEAfter)
	}
}

func TestBaselineMAEAccumulatesDrift(t *testing.T) {
	db, wl := testWorkload(50, 300, 4, 12, 4)
	rng := rand.New(rand.NewSource(51))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 6
	net.Fit(tc, db, train, valid)

	// Grow the database so labels genuinely change.
	ins := make([][]float64, 0, db.Size()/5)
	for i := 0; i < cap(ins); i++ {
		ins = append(ins, append([]float64(nil), db.Vecs[i]...))
	}
	db.Insert(ins...)

	// Per-op semantics (BaselineMAE=0) with a deltaU larger than any
	// single-op shift: never retrains.
	snapshot := append([]vecdata.Query(nil), valid...)
	ucPerOp := UpdateConfig{DeltaU: 1e9, Patience: 2, MaxEpochs: 2}
	if res := net.HandleUpdate(tc, ucPerOp, db, train, snapshot); res.Retrained {
		t.Fatalf("huge deltaU must suppress retraining")
	}
	// Baseline semantics: a stale baseline far from the current MAE must
	// trigger retraining even when the per-op delta would not (the
	// comparison reference switches to BaselineMAE).
	cur := net.MAE(snapshot)
	ucBase := UpdateConfig{DeltaU: 1, BaselineMAE: cur + 10, Patience: 2, MaxEpochs: 2}
	if res := net.HandleUpdate(tc, ucBase, db, train, snapshot); !res.Retrained {
		t.Fatalf("drift vs baseline should trigger retraining")
	}
}

func TestFitEpochsUntilNoImprovementStops(t *testing.T) {
	db, wl := testWorkload(46, 200, 4, 10, 4)
	rng := rand.New(rand.NewSource(47))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	epochs := net.FitEpochsUntilNoImprovement(tc, train, valid, 2, 50)
	if epochs < 1 || epochs > 50 {
		t.Fatalf("epochs = %d out of range", epochs)
	}
}

func TestUpdateStreamEndToEnd(t *testing.T) {
	// A miniature version of the Figure 5 experiment: run a stream of
	// updates through the handler and check errors stay finite and labels
	// stay fresh.
	db, wl := testWorkload(48, 300, 4, 12, 4)
	rng := rand.New(rand.NewSource(49))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 6
	net.Fit(tc, db, train, valid)
	uc := UpdateConfig{DeltaU: 2.0, Patience: 2, MaxEpochs: 3}
	ops := vecdata.UpdateStream(rng, 6, 5, func(r *rand.Rand) []float64 {
		return vecdata.SampleLike(r, db, 0.1)
	})
	for _, op := range ops {
		op.Apply(rng, db)
		res := net.HandleUpdate(tc, uc, db, train, valid)
		if math.IsNaN(res.MAEAfter) || math.IsInf(res.MAEAfter, 0) {
			t.Fatalf("MAE diverged: %v", res.MAEAfter)
		}
	}
}
