package partition

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"selnet/internal/distance"
	"selnet/internal/vecdata"
)

func testDB(seed int64, n, dim int, dist distance.Func) *vecdata.Database {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if dist == distance.Cosine {
			v = distance.Normalize(v)
		}
		vecs[i] = v
	}
	return vecdata.NewDatabase("t", dist, vecs)
}

func TestAllMethodsValidate(t *testing.T) {
	for _, method := range []Method{CoverTree, Random, KMeans} {
		for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
			db := testDB(7, 300, 4, dist)
			rng := rand.New(rand.NewSource(8))
			p := Build(rng, db, 3, 0.2, method)
			if err := p.Validate(db); err != nil {
				t.Fatalf("%v/%v: %v", method, dist, err)
			}
			if p.K() < 1 || p.K() > 3 {
				t.Fatalf("%v/%v: K = %d", method, dist, p.K())
			}
		}
	}
}

func TestCoverTreeClustersRoughlyBalanced(t *testing.T) {
	db := testDB(9, 600, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(10))
	p := Build(rng, db, 3, 0.1, CoverTree)
	if p.K() != 3 {
		t.Fatalf("K = %d", p.K())
	}
	// Greedy merge of <=0.1*600=60-point regions into the smallest cluster
	// bounds the imbalance by one region.
	min, max := db.Size(), 0
	for _, c := range p.Clusters {
		if len(c.Members) < min {
			min = len(c.Members)
		}
		if len(c.Members) > max {
			max = len(c.Members)
		}
	}
	if max-min > 60 {
		t.Fatalf("imbalance %d exceeds region bound", max-min)
	}
}

func TestRandomIndicatorAllOnes(t *testing.T) {
	db := testDB(11, 100, 3, distance.Euclidean)
	rng := rand.New(rand.NewSource(12))
	p := Build(rng, db, 4, 0.1, Random)
	ind := p.Indicator(db.Vecs[0], 0.001)
	for i, b := range ind {
		if !b {
			t.Fatalf("random indicator[%d] = false", i)
		}
	}
}

// The indicator must never miss a cluster that actually contains matches:
// if f_c(x,t)[i] = 0, then no point of cluster i is within t of x.
func TestIndicatorSoundness(t *testing.T) {
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		for _, method := range []Method{CoverTree, KMeans} {
			db := testDB(13, 300, 4, dist)
			rng := rand.New(rand.NewSource(14))
			p := Build(rng, db, 4, 0.1, method)
			f := func(seed int64) bool {
				r2 := rand.New(rand.NewSource(seed))
				x := db.Vecs[r2.Intn(db.Size())]
				var threshold float64
				if dist == distance.Cosine {
					threshold = r2.Float64() * 0.5
				} else {
					threshold = r2.Float64() * 2
				}
				ind := p.Indicator(x, threshold)
				for ci, c := range p.Clusters {
					if ind[ci] {
						continue
					}
					for _, m := range c.Members {
						if dist.Distance(x, db.Vecs[m]) <= threshold {
							return false // missed a match
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatalf("%v/%v: %v", method, dist, err)
			}
		}
	}
}

// A query point from the database must always activate the cluster that
// contains it.
func TestIndicatorActivatesOwnCluster(t *testing.T) {
	db := testDB(15, 200, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(16))
	p := Build(rng, db, 3, 0.15, CoverTree)
	owner := map[int]int{}
	for ci, c := range p.Clusters {
		for _, m := range c.Members {
			owner[m] = ci
		}
	}
	for i := 0; i < db.Size(); i += 7 {
		ind := p.Indicator(db.Vecs[i], 0)
		if !ind[owner[i]] {
			t.Fatalf("point %d does not activate its own cluster", i)
		}
	}
}

// The lazy gate of selnet's estimate loop scans a threshold ladder once,
// at its largest threshold, and tests a row only below a threshold
// already proven active; both rest on this: for t1 <= t2, a cluster
// IndicatorInto activates at t1 it activates at t2, and Active(i) is
// element i of IndicatorInto. Thresholds cover 0, negatives, subnormals,
// ±Inf and each ball's edge fl(L2(x, c) − r) with its Nextafter
// neighbours; a NaN threshold activates nothing.
func TestIndicatorMonotoneInT(t *testing.T) {
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		for _, method := range []Method{CoverTree, KMeans} {
			tag := method.String() + "/" + dist.String()
			rng := rand.New(rand.NewSource(33))
			db := vecdata.SyntheticFasttext(rng, 300, 8, dist)
			wl := vecdata.GeometricWorkload(rng, db, 10, 2)
			p := Build(rng, db, 3, 0.05, method)
			queries := [][]float64{make([]float64, 8)}
			for _, q := range wl.Queries {
				queries = append(queries, q.X)
			}
			qbuf := make([]float64, 8)
			for _, x := range queries {
				ts := []float64{math.Inf(-1), -1, -5e-324, math.Copysign(0, -1), 0, 5e-324, 1e-300, wl.TMax, math.Inf(1)}
				qx := x
				if p.convert {
					qx = distance.Normalize(x)
				}
				for _, c := range p.Clusters {
					for _, b := range c.Balls {
						edge := distance.L2(qx, b.Center) - b.Radius
						for _, e := range []float64{math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1))} {
							if p.convert {
								e = distance.L2ToCosineThreshold(math.Max(e, 0))
							}
							ts = append(ts, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
						}
					}
				}
				sort.Float64s(ts)
				prev := make([]bool, p.K())
				for _, thr := range ts {
					cur := make([]bool, p.K())
					p.IndicatorInto(cur, qbuf, x, thr)
					for i := range cur {
						if prev[i] && !cur[i] {
							t.Fatalf("%s: x %v: cluster %d active below t %v but not at it", tag, x, i, thr)
						}
						if a, _ := p.Active(i, qbuf, x, thr); a != cur[i] {
							t.Fatalf("%s: x %v t %v: Active(%d) %v, IndicatorInto %v", tag, x, thr, i, a, cur[i])
						}
					}
					prev = cur
				}
				nan := make([]bool, p.K())
				p.IndicatorInto(nan, qbuf, x, math.NaN())
				for i, a := range nan {
					if act, _ := p.Active(i, qbuf, x, math.NaN()); a || act {
						t.Fatalf("%s: x %v: cluster %d active at t = NaN", tag, x, i)
					}
				}
			}
		}
	}
}

func TestKEqualsOneSingleCluster(t *testing.T) {
	db := testDB(19, 50, 3, distance.Euclidean)
	rng := rand.New(rand.NewSource(20))
	p := Build(rng, db, 1, 0.2, CoverTree)
	if p.K() != 1 {
		t.Fatalf("K = %d", p.K())
	}
	if len(p.Clusters[0].Members) != 50 {
		t.Fatalf("single cluster must hold everything")
	}
}

func TestKLargerThanN(t *testing.T) {
	db := testDB(21, 5, 3, distance.Euclidean)
	rng := rand.New(rand.NewSource(22))
	p := Build(rng, db, 50, 0.2, Random)
	if err := p.Validate(db); err != nil {
		t.Fatal(err)
	}
	if p.K() > 5 {
		t.Fatalf("K = %d exceeds n", p.K())
	}
}

func TestMethodString(t *testing.T) {
	if CoverTree.String() != "CT" || Random.String() != "RP" || KMeans.String() != "KM" {
		t.Fatalf("method names wrong: %v %v %v", CoverTree, Random, KMeans)
	}
}

func TestBuildPanicsOnBadK(t *testing.T) {
	db := testDB(23, 10, 2, distance.Euclidean)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Build(rand.New(rand.NewSource(1)), db, 0, 0.1, CoverTree)
}

func TestKMeansDeterministicGivenSeed(t *testing.T) {
	db := testDB(24, 150, 3, distance.Euclidean)
	p1 := Build(rand.New(rand.NewSource(5)), db, 3, 0.1, KMeans)
	p2 := Build(rand.New(rand.NewSource(5)), db, 3, 0.1, KMeans)
	if p1.K() != p2.K() {
		t.Fatalf("nondeterministic K")
	}
	for i := range p1.Clusters {
		if len(p1.Clusters[i].Members) != len(p2.Clusters[i].Members) {
			t.Fatalf("nondeterministic cluster sizes")
		}
		for j := range p1.Clusters[i].Members {
			if p1.Clusters[i].Members[j] != p2.Clusters[i].Members[j] {
				t.Fatalf("nondeterministic membership")
			}
		}
	}
}

func TestPrimaryRegion(t *testing.T) {
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		db := testDB(21, 400, 4, dist)
		rng := rand.New(rand.NewSource(22))
		p := Build(rng, db, 4, 0.2, KMeans)
		tq := 0.5
		if dist == distance.Cosine {
			tq = 0.2
		}
		// Every database point must be attributed to a real cluster, and
		// when the indicator activates the attributed cluster must be one
		// of the active ones.
		for i := 0; i < 50; i++ {
			x := db.Vecs[i]
			r := p.PrimaryRegion(x, tq)
			if r < 0 || r >= p.K() {
				t.Fatalf("%v: PrimaryRegion(vec %d) = %d, want [0, %d)", dist, i, r, p.K())
			}
			if act := p.Indicator(x, tq); !act[r] {
				t.Fatalf("%v: attributed cluster %d inactive for vec %d", dist, r, i)
			}
		}
	}
}

func TestPrimaryRegionFallsBackToNearest(t *testing.T) {
	db := testDB(23, 200, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(24))
	p := Build(rng, db, 3, 0.2, KMeans)
	// A query far outside every ball with a tiny threshold activates no
	// region but must still be attributed to its nearest center.
	far := []float64{100, 100, 100, 100}
	r := p.PrimaryRegion(far, 1e-9)
	if r < 0 || r >= p.K() {
		t.Fatalf("far query attribution = %d, want the nearest cluster", r)
	}
	best, bestD := -1, math.Inf(1)
	for i, c := range p.Clusters {
		for _, b := range c.Balls {
			if d := distance.L2(far, b.Center); d < bestD {
				best, bestD = i, d
			}
		}
	}
	if r != best {
		t.Fatalf("far query attributed to %d, nearest center is %d", r, best)
	}
}

func TestPrimaryRegionRandomIsUnattributed(t *testing.T) {
	db := testDB(25, 100, 4, distance.Euclidean)
	rng := rand.New(rand.NewSource(26))
	p := Build(rng, db, 3, 0.2, Random)
	if r := p.PrimaryRegion(db.Vecs[0], 0.5); r != -1 {
		t.Fatalf("random partitioning attribution = %d, want -1", r)
	}
}

// flatIndicator is the indicator without the norm bound, kept as the
// reference: every ball of a cluster is tested with distance.L2Within
// until one passes. It returns the decisions and the number of tests.
func flatIndicator(p *Partitioning, x []float64, t float64) ([]bool, int) {
	out := make([]bool, p.K())
	if p.allActive {
		for i := range out {
			out[i] = true
		}
		return out, 0
	}
	qx, qt := x, t
	if p.convert {
		qx = distance.Normalize(x)
		qt = distance.CosineToL2Threshold(t)
	}
	tests := 0
	for i, c := range p.Clusters {
		for _, b := range c.Balls {
			tests++
			if distance.L2Within(qx, b.Center, qt+b.Radius) {
				out[i] = true
				break
			}
		}
	}
	return out, tests
}

// checkIndicator fails t when IndicatorInto differs from the flat scan
// at (x, thr), and returns the tests both made.
func checkIndicator(t *testing.T, tag string, p *Partitioning, x []float64, thr float64) (fast, flat int) {
	t.Helper()
	want, flat := flatIndicator(p, x, thr)
	got := make([]bool, p.K())
	fast = p.indicatorInto(got, make([]float64, len(x)), x, thr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: x %v t %v: cluster %d is %v, flat scan says %v", tag, x, thr, i, got[i], want[i])
		}
	}
	return fast, flat
}

// The norm bound only skips balls the exact test rejects, so
// IndicatorInto answers exactly as the flat scan does: for every
// metric and method, at degenerate thresholds, and at non-finite,
// subnormal and on-the-boundary queries. (A radius grown by ApplyInsert
// is covered in selnet.)
func TestIndicatorMatchesFlatScan(t *testing.T) {
	for _, dist := range []distance.Func{distance.Euclidean, distance.Cosine} {
		for _, method := range []Method{CoverTree, KMeans, Random} {
			tag := method.String() + "/" + dist.String()
			rng := rand.New(rand.NewSource(31))
			db := vecdata.SyntheticFasttext(rng, 400, 16, dist)
			wl := vecdata.GeometricWorkload(rng, db, 12, 6)
			p := Build(rng, db, 3, 0.05, method)

			ts := []float64{0, 1e-300, wl.TMax * 1.5, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
			for _, q := range wl.Queries[:6] {
				ts = append(ts, q.T)
			}
			queries := [][]float64{make([]float64, 16)}
			for _, q := range wl.Queries {
				queries = append(queries, q.X)
			}
			for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e200} {
				x := append([]float64(nil), db.Vecs[0]...)
				x[3] = bad
				queries = append(queries, x)
			}
			for ci := range p.Clusters {
				for bi := range p.Clusters[ci].Balls {
					if bi%7 != 0 {
						continue
					}
					b := p.Clusters[ci].Balls[bi]
					// The center itself, and the two points of the ball's
					// surface on the ray through the origin, where the
					// norm gap equals the distance and rounding decides.
					queries = append(queries, b.Center)
					if n := distance.Norm(b.Center); n > 0 {
						for _, s := range []float64{1 + b.Radius/n, 1 - b.Radius/n} {
							x := make([]float64, len(b.Center))
							for i, v := range b.Center {
								x[i] = v * s
							}
							queries = append(queries, x)
						}
					}
				}
			}
			for _, x := range queries {
				for _, thr := range ts {
					checkIndicator(t, tag, p, x, thr)
				}
			}
		}
	}
	// A zero-radius ball at 1e-162 holds x at 2e-162 when t = 0: their
	// distance underflows to 0 though ‖x‖ does not.
	tiny, tinyC := make([]float64, 16), make([]float64, 16)
	for i := range tiny {
		tiny[i], tinyC[i] = 2e-162, 1e-162
	}
	sub := Restore(CoverTree, []Cluster{{Members: []int{0}, Balls: []Ball{{Center: tinyC}}}}, false, false)
	if _, flat := checkIndicator(t, "subnormal", sub, tiny, 0); flat != 1 {
		t.Fatalf("subnormal: %d flat tests", flat)
	}
	if !sub.Indicator(tiny, 0)[0] {
		t.Fatal("subnormal: the ball must be active")
	}
}

// The bound skips on both sides of a ball: a query much nearer the
// origin than the center, and one much farther, make no exact test.
func TestIndicatorSkipsBothSides(t *testing.T) {
	p := Restore(CoverTree, []Cluster{{Members: []int{0}, Balls: []Ball{{Center: []float64{10, 0, 0}, Radius: 1}}}}, false, false)
	out := make([]bool, 1)
	for _, x := range [][]float64{{0, 0, 0}, {0, 100, 0}} {
		if tests := p.indicatorInto(out, make([]float64, 3), x, 0.5); tests != 0 || out[0] {
			t.Fatalf("x %v: %d exact tests, active %v; want 0, false", x, tests, out[0])
		}
	}
	if tests := p.indicatorInto(out, make([]float64, 3), []float64{0, 10, 0}, 0.5); tests != 1 || out[0] {
		t.Fatalf("equal norms: %d exact tests, active %v; want 1, false", tests, out[0])
	}
}

// TestIndicatorBallTestCount pins the work the norm bound saves on the
// fixture of BenchmarkPartitionedEstimateBatchLadder (selbench's
// batch_scan request in process: 32 vectors x 8 ascending thresholds on
// a K = 3 cover-tree partitioning of 2000 64-d vectors).
func TestIndicatorBallTestCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFasttext(rng, 2000, 64, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, 32, 8)
	p := Build(rng, db, 3, 0.1, CoverTree)
	var fast, flat int
	for _, q := range wl.Queries {
		f, s := checkIndicator(t, "ladder", p, q.X, q.T)
		fast += f
		flat += s
	}
	t.Logf("%d rows: %d exact ball tests, flat scan %d", len(wl.Queries), fast, flat)
	if fast*3 > flat {
		t.Fatalf("%d exact ball tests, flat scan %d: want at least 3x fewer", fast, flat)
	}
}
