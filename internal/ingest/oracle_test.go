package ingest

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"selnet/internal/distance"
	"selnet/internal/metrics"
	"selnet/internal/vecdata"
)

func TestVCSampleSize(t *testing.T) {
	// m = ceil(0.5/eps^2 * (vc + ln(1/delta))), at the oracle's eps and
	// delta.
	got := metrics.VCSampleSize(oracleEpsilon, oracleDelta, 4)
	want := int(math.Ceil(0.5 / (0.05 * 0.05) * (4 + math.Log(100))))
	if got != want {
		t.Fatalf("VCSampleSize(0.05, 0.01, 4) = %d, want %d", got, want)
	}
	// Tighter eps demands more samples; higher VC dimension too.
	if metrics.VCSampleSize(0.01, 0.01, 4) <= got {
		t.Fatal("smaller eps should need more samples")
	}
	if metrics.VCSampleSize(0.05, 0.01, 10) <= got {
		t.Fatal("larger VC dim should need more samples")
	}
}

func TestDBOracleExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFasttext(rng, 200, 4, distance.Euclidean)
	o := NewDBOracle(db, OracleConfig{Budget: 2000})
	x := db.Vecs[0]
	v, method := o.TrueSelectivity(x, 0.5)
	if method != "exact" {
		t.Fatalf("method = %q, want exact for db smaller than budget", method)
	}
	if want := db.Selectivity(x, 0.5); v != want {
		t.Fatalf("exact selectivity = %v, want %v", v, want)
	}
}

func TestDBOracleSampleLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := vecdata.SyntheticFasttext(rng, 5000, 4, distance.Euclidean)
	o := NewDBOracle(db, OracleConfig{Budget: 1500})
	x := db.Vecs[0]
	t1 := 1.0
	v, method := o.TrueSelectivity(x, t1)
	if method != "sample" {
		t.Fatalf("method = %q, want sample for l2 db larger than budget", method)
	}
	// The VC bound promises |estimate - truth| <= eps*|D| w.p. 1-delta;
	// allow 2x slack so the test never flakes.
	truth := db.Selectivity(x, t1)
	if diff := math.Abs(v - truth); diff > 2*oracleEpsilon*float64(db.Size()) {
		t.Fatalf("sampled selectivity %v vs truth %v: off by %v", v, truth, diff)
	}
	// Deterministic: same query, same sample, same answer.
	v2, _ := o.TrueSelectivity(x, t1)
	if v2 != v {
		t.Fatalf("sampled selectivity not deterministic: %v then %v", v, v2)
	}
	// Monotone in t on the shared sample stream.
	lo, _ := o.TrueSelectivity(x, 0.5)
	hi, _ := o.TrueSelectivity(x, 2.0)
	if lo > v || v > hi {
		t.Fatalf("sampled selectivity not monotone in t: %v, %v, %v", lo, v, hi)
	}
}

func TestDBOracleLSHCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := vecdata.SyntheticFace(rng, 3000, 8)
	o := NewDBOracle(db, OracleConfig{Budget: 1000})
	x := db.Vecs[0]
	v, method := o.TrueSelectivity(x, 0.3)
	if method != "lsh" {
		t.Fatalf("method = %q, want lsh for cosine db larger than budget", method)
	}
	truth := db.Selectivity(x, 0.3)
	if truth > 0 && (v < truth/20 || v > truth*20) {
		t.Fatalf("lsh selectivity %v wildly off truth %v", v, truth)
	}
}

func TestDBOracleMutationVersioning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := vecdata.SyntheticFace(rng, 3000, 8)
	o := NewDBOracle(db, OracleConfig{Budget: 1000})
	x := append([]float64(nil), db.Vecs[0]...)
	before, method := o.TrueSelectivity(x, 0.3)
	if method != "lsh" {
		t.Fatalf("method = %q, want lsh", method)
	}
	// Duplicate the first 500 vectors under the mutation bracket; the
	// refreshed signatures must see them (estimate grows).
	o.BeginMutate()
	for i := 0; i < 500; i++ {
		db.Vecs = append(db.Vecs, append([]float64(nil), db.Vecs[i]...))
	}
	o.EndMutate()
	after, method := o.TrueSelectivity(x, 0.3)
	if method != "lsh" {
		t.Fatalf("post-mutation method = %q, want lsh", method)
	}
	if after <= before {
		t.Fatalf("estimate did not grow after inserting duplicates: %v -> %v", before, after)
	}
}

func TestDBOracleConcurrentMutateAndRead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := vecdata.SyntheticFasttext(rng, 4000, 4, distance.Euclidean)
	o := NewDBOracle(db, OracleConfig{Budget: 500})
	// Copy the probe before the writer starts: reading db.Vecs outside
	// BeginMutate/EndMutate would itself race with the append.
	x := append([]float64(nil), db.Vecs[0]...)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			o.BeginMutate()
			db.Vecs = append(db.Vecs, vecdata.SampleLike(rng, db, 0.05))
			o.EndMutate()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			o.TrueSelectivity(x, 1.0)
		}
	}()
	wg.Wait()
}
