package selnet

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestNetSaveLoadRoundTrip(t *testing.T) {
	db, wl := testWorkload(60, 300, 4, 10, 4)
	rng := rand.New(rand.NewSource(61))
	train, valid, _ := wl.Split(rng)
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 5
	net.Fit(tc, db, train, valid)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadNet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != net.Name() || restored.Dim() != net.Dim() || restored.TMax() != net.TMax() {
		t.Fatalf("metadata not restored")
	}
	for _, q := range wl.Queries[:20] {
		a := net.Estimate(q.X, q.T)
		b := restored.Estimate(q.X, q.T)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("estimates diverge after round trip: %v vs %v", a, b)
		}
	}
}

func TestNetSaveLoadFile(t *testing.T) {
	db, wl := testWorkload(62, 150, 3, 5, 3)
	rng := rand.New(rand.NewSource(63))
	net := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := LoadNet(f)
	if err != nil {
		t.Fatal(err)
	}
	x := db.Vecs[0]
	if math.Abs(net.Estimate(x, 0.5)-restored.Estimate(x, 0.5)) > 1e-12 {
		t.Fatalf("file round trip changed estimates")
	}
}

func TestPartitionedSaveLoadRoundTrip(t *testing.T) {
	db, wl := testWorkload(64, 300, 4, 10, 4)
	rng := rand.New(rand.NewSource(65))
	train, valid, _ := wl.Split(rng)
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 4
	p.Fit(tc, db, train, valid)

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPartitioned(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.K() != p.K() || restored.Name() != p.Name() {
		t.Fatalf("structure not restored: K %d vs %d", restored.K(), p.K())
	}
	for _, q := range wl.Queries[:20] {
		a := p.Estimate(q.X, q.T)
		b := restored.Estimate(q.X, q.T)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("partitioned estimates diverge after round trip: %v vs %v", a, b)
		}
	}
	// The restored model must remain updatable (cluster vectors intact).
	restored.ApplyInsert([][]float64{append([]float64(nil), db.Vecs[0]...)})
	total := 0
	for _, s := range restored.ClusterSizes() {
		total += s
	}
	if total != db.Size()+1 {
		t.Fatalf("cluster vectors not restored: total %d", total)
	}
}

func TestLoadNetRejectsGarbage(t *testing.T) {
	if _, err := LoadNet(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatalf("expected error for garbage input")
	}
}
