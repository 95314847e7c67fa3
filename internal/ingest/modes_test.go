package ingest

import (
	"math/rand"
	"testing"

	"selnet/internal/distance"
	"selnet/internal/gbm"
	"selnet/internal/kde"
	"selnet/internal/lshsampling"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

// The ingest pipeline degrades by estimator capability: SelNet retrains,
// LSH refreshes its derived state against the updated database, and
// static estimators (KDE, GBM, DLN, UMNN) keep serving while
// the database and journal absorb the updates.

func cosineData(seed int64, n, dim, queries int) (*vecdata.Database, []vecdata.Query, []vecdata.Query) {
	rng := rand.New(rand.NewSource(seed))
	db := vecdata.SyntheticFasttext(rng, n, dim, distance.Cosine)
	wl := vecdata.GeometricWorkload(rng, db, queries, 4)
	cut := len(wl.Queries) * 3 / 4
	return db, wl.Queries[:cut], wl.Queries[cut:]
}

func TestModeOf(t *testing.T) {
	db, train, valid := cosineData(1, 150, 4, 8)
	lsh, err := lshsampling.Build(rand.New(rand.NewSource(2)), db, lshsampling.DefaultConfig())
	if err != nil {
		t.Fatalf("build lsh: %v", err)
	}
	cfg := kde.DefaultConfig()
	cfg.SampleSize = 40
	k := kde.FitTuned(rand.New(rand.NewSource(3)), db, cfg, valid)
	g := gbm.FitSelectivity(gbm.DefaultConfig(), append(train, valid...), true)

	for _, tc := range []struct {
		est  serve.Estimator
		want updateMode
	}{
		{tinyModel(4, db.Dim, 1), modeRetrain},
		{lsh, modeRefresh},
		{k, modeStatic},
		{g, modeStatic},
	} {
		if got := modeOf(tc.est); got != tc.want {
			t.Errorf("modeOf(%s) = %v, want %v", tc.est.Name(), got, tc.want)
		}
	}
}

// TestRefreshMode attaches an LSH estimator and verifies an update
// cycle rebuilds it against the grown database and hot-swaps the clone.
func TestRefreshMode(t *testing.T) {
	db, train, valid := cosineData(11, 200, 4, 8)
	lsh, err := lshsampling.Build(rand.New(rand.NewSource(12)), db, lshsampling.DefaultConfig())
	if err != nil {
		t.Fatalf("build lsh: %v", err)
	}
	p, reg := newPipeline(t, Config{})
	if _, err := reg.Publish("m", lsh, "test"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := p.Attach("m", lsh, db.Clone(), train, valid); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if st := p.UpdaterStats()["m"]; st.Mode != "refresh" {
		t.Fatalf("mode = %q, want refresh", st.Mode)
	}

	before := lsh.DataSize()
	rng := rand.New(rand.NewSource(13))
	ins := make([][]float64, 16)
	for i := range ins {
		v := make([]float64, db.Dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		ins[i] = v
	}
	ack, err := p.Enqueue("m", ins, nil)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if !p.WaitApplied("m", ack.Seq) {
		t.Fatal("apply did not complete")
	}

	m, ok := reg.Get("m")
	if !ok {
		t.Fatal("model gone from registry")
	}
	swapped, isLSH := m.Est.(*lshsampling.Estimator)
	if !isLSH {
		t.Fatalf("registry holds %T after refresh", m.Est)
	}
	if swapped == lsh {
		t.Fatal("refresh published the original estimator, not a clone")
	}
	if got := swapped.DataSize(); got != before+len(ins) {
		t.Fatalf("refreshed DataSize = %d, want %d", got, before+len(ins))
	}
	// The original keeps serving its pre-update view.
	if lsh.DataSize() != before {
		t.Fatalf("original estimator mutated: DataSize %d, want %d", lsh.DataSize(), before)
	}
	st := p.UpdaterStats()["m"]
	if st.Refreshed != 1 || st.Retrained != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStaticMode attaches a KDE estimator: updates apply to the
// database and journal, the published model never changes, and the
// pipeline reports the degradation honestly.
func TestStaticMode(t *testing.T) {
	db, wl, train, valid := testData(21, 150, 4, 8)
	_ = wl
	cfg := kde.DefaultConfig()
	cfg.SampleSize = 40
	k := kde.FitTuned(rand.New(rand.NewSource(22)), db, cfg, valid)
	p, reg := newPipeline(t, Config{})
	if _, err := reg.Publish("m", k, "test"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	priv := db.Clone()
	if err := p.Attach("m", k, priv, train, valid); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if st := p.UpdaterStats()["m"]; st.Mode != "static" {
		t.Fatalf("mode = %q, want static", st.Mode)
	}

	gen0 := mustGet(t, reg, "m").Generation
	ins := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	ack, err := p.Enqueue("m", ins, nil)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if !p.WaitApplied("m", ack.Seq) {
		t.Fatal("apply did not complete")
	}
	if priv.Size() != db.Size()+len(ins) {
		t.Fatalf("private db size = %d, want %d", priv.Size(), db.Size()+len(ins))
	}
	m := mustGet(t, reg, "m")
	if m.Generation != gen0 || m.Est != serve.Estimator(k) {
		t.Fatalf("static model was swapped: gen %d -> %d", gen0, m.Generation)
	}
	st := p.UpdaterStats()["m"]
	if st.BatchesApplied != 1 || st.InsertedVecs != 2 || st.Retrained != 0 || st.Refreshed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStaticModeNeedsNoValidation verifies static attachment works
// without validation queries — there is no δ_U check to feed.
func TestStaticModeNeedsNoValidation(t *testing.T) {
	db, _, _, valid := testData(31, 120, 4, 8)
	cfg := kde.DefaultConfig()
	cfg.SampleSize = 40
	k := kde.FitTuned(rand.New(rand.NewSource(32)), db, cfg, valid)
	p, _ := newPipeline(t, Config{})
	if err := p.Attach("m", k, db.Clone(), nil, nil); err != nil {
		t.Fatalf("attach without validation: %v", err)
	}
}

// TestStaticModeDurableSnapshot round-trips a non-SelNet model through
// the durable snapshot path: the kind-tagged codec persists the KDE
// with the database, and recovery republishes it.
func TestStaticModeDurableSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, _, train, valid := testData(41, 150, 4, 8)
	cfg := kde.DefaultConfig()
	cfg.SampleSize = 40
	k := kde.FitTuned(rand.New(rand.NewSource(42)), db, cfg, valid)

	reg := serve.NewRegistry(nil)
	if _, err := reg.Publish("m", k, "test"); err != nil {
		t.Fatal(err)
	}
	p1 := New(Config{
		Registry: reg,
		Journal:  JournalConfig{Dir: dir, SnapshotEvery: 1},
	})
	if err := p1.Attach("m", k, db.Clone(), train, valid); err != nil {
		t.Fatalf("attach: %v", err)
	}
	ack, err := p1.Enqueue("m", [][]float64{{9, 9, 9, 9}}, nil)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if !p1.WaitApplied("m", ack.Seq) {
		t.Fatal("apply did not complete")
	}
	p1.Close() // drains the snapshotter

	reg2 := serve.NewRegistry(nil)
	var recovered Recovery
	p2 := New(Config{
		Registry: reg2,
		Journal:  JournalConfig{Dir: dir, OnRecover: func(_ string, r Recovery) { recovered = r }},
	})
	t.Cleanup(p2.Close)
	// Attach with a *different* model; the snapshot's KDE must win.
	if err := p2.Attach("m", tinyModel(43, db.Dim, 1), db.Clone(), train, valid); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if !recovered.RestoredModel || recovered.SnapshotSeq != ack.Seq {
		t.Fatalf("recovery = %+v", recovered)
	}
	m := mustGet(t, reg2, "m")
	got, isKDE := m.Est.(*kde.Estimator)
	if !isKDE {
		t.Fatalf("recovered %T, want *kde.Estimator", m.Est)
	}
	probe := []float64{0.1, 0.2, 0.3, 0.4}
	if a, b := got.Estimate(probe, 0.5), k.Estimate(probe, 0.5); a != b {
		t.Fatalf("recovered KDE estimates %v, original %v", a, b)
	}
	// The pipeline re-derived its mode from the recovered model.
	if st := p2.UpdaterStats()["m"]; st.Mode != "static" || st.SnapshotSeq != ack.Seq {
		t.Fatalf("post-recovery stats = %+v", st)
	}
}

func mustGet(t *testing.T, reg *serve.Registry, name string) *serve.Model {
	t.Helper()
	m, ok := reg.Get(name)
	if !ok {
		t.Fatalf("model %q not in registry", name)
	}
	return m
}
