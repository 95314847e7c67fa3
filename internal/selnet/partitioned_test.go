package selnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"selnet/internal/distance"
	"selnet/internal/nn"
	"selnet/internal/partition"
)

func tinyPartitionedConfig(tmax float64) PartitionedConfig {
	return PartitionedConfig{
		Model:          tinyConfig(tmax),
		K:              3,
		Ratio:          0.15,
		Method:         partition.CoverTree,
		Beta:           0.1,
		PretrainEpochs: 3,
	}
}

func TestPartitionedConstruction(t *testing.T) {
	db, wl := testWorkload(20, 400, 5, 10, 4)
	rng := rand.New(rand.NewSource(21))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	if p.K() < 1 || p.K() > 3 {
		t.Fatalf("K = %d", p.K())
	}
	total := 0
	for _, s := range p.ClusterSizes() {
		total += s
	}
	if total != db.Size() {
		t.Fatalf("cluster sizes sum to %d, want %d", total, db.Size())
	}
	if p.Name() != "SelNet" || !p.ConsistencyGuaranteed() {
		t.Fatalf("metadata wrong")
	}
}

func TestLocalLabelsSumToGlobal(t *testing.T) {
	db, wl := testWorkload(22, 300, 4, 8, 4)
	rng := rand.New(rand.NewSource(23))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	for _, q := range wl.Queries[:16] {
		var sum float64
		for ci := 0; ci < p.K(); ci++ {
			sum += p.localLabel(ci, q.X, q.T)
		}
		if sum != q.Y {
			t.Fatalf("local labels sum %v != global %v", sum, q.Y)
		}
	}
}

// Global estimate is monotone in t even with the indicator gating
// (active set grows, locals are non-negative).
func TestPartitionedEstimateMonotone(t *testing.T) {
	db, wl := testWorkload(24, 300, 4, 8, 4)
	rng := rand.New(rand.NewSource(25))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := db.Vecs[r.Intn(db.Size())]
		t1 := r.Float64() * wl.TMax
		t2 := t1 + r.Float64()*wl.TMax
		return p.Estimate(x, t1) <= p.Estimate(x, t2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedFitImproves(t *testing.T) {
	db, wl := testWorkload(26, 600, 5, 30, 6)
	rng := rand.New(rand.NewSource(27))
	train, valid, test := wl.Split(rng)
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs = 15
	before := p.Loss(tc, test)
	p.Fit(tc, db, train, valid)
	after := p.Loss(tc, test)
	if after >= before {
		t.Fatalf("partitioned training did not improve test loss: %v -> %v", before, after)
	}
}

func TestPartitionedSharesAutoencoder(t *testing.T) {
	db, wl := testWorkload(28, 200, 4, 6, 3)
	rng := rand.New(rand.NewSource(29))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	for _, l := range p.locals {
		if l.ae != p.ae {
			t.Fatalf("local models must share the autoencoder (Sec. 5.3)")
		}
	}
	// Params must contain the AE parameters exactly once.
	count := map[interface{}]int{}
	for _, pr := range p.Params() {
		count[pr]++
	}
	for _, pr := range p.ae.Params() {
		if count[pr] != 1 {
			t.Fatalf("AE param appears %d times in Params()", count[pr])
		}
	}
}

func TestApplyInsertAndDelete(t *testing.T) {
	db, wl := testWorkload(30, 200, 4, 6, 3)
	rng := rand.New(rand.NewSource(31))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	before := p.ClusterSizes()
	totalBefore := 0
	for _, s := range before {
		totalBefore += s
	}
	// Insert three copies of an existing vector region.
	ins := [][]float64{
		append([]float64(nil), db.Vecs[0]...),
		append([]float64(nil), db.Vecs[1]...),
		append([]float64(nil), db.Vecs[2]...),
	}
	p.ApplyInsert(ins)
	totalAfter := 0
	for _, s := range p.ClusterSizes() {
		totalAfter += s
	}
	if totalAfter != totalBefore+3 {
		t.Fatalf("insert changed total by %d, want 3", totalAfter-totalBefore)
	}
	// Local label must see the inserted duplicates.
	y0 := p.localLabelSum(db.Vecs[0], 0)
	if y0 < 2 { // original + duplicate at distance 0
		t.Fatalf("inserted vector not visible in local labels: %v", y0)
	}
	// Delete them again.
	p.ApplyDelete(ins)
	totalFinal := 0
	for _, s := range p.ClusterSizes() {
		totalFinal += s
	}
	if totalFinal != totalBefore {
		t.Fatalf("delete did not restore total: %d vs %d", totalFinal, totalBefore)
	}
	// Deleting a vector that does not exist is a no-op.
	p.ApplyDelete([][]float64{{99, 99, 99, 99}})
	totalNoop := 0
	for _, s := range p.ClusterSizes() {
		totalNoop += s
	}
	if totalNoop != totalBefore {
		t.Fatalf("deleting a missing vector changed sizes")
	}
}

// localLabelSum sums the local labels across clusters for (x, t).
func (p *Partitioned) localLabelSum(x []float64, t float64) float64 {
	var s float64
	for ci := 0; ci < p.K(); ci++ {
		s += p.localLabel(ci, x, t)
	}
	return s
}

// handBuiltPartitioned assembles a Partitioned with explicit cluster
// geometry and member vectors, bypassing partition.Build, so tests can
// exercise degenerate shapes (empty clusters, ball-less clusters).
func handBuiltPartitioned(dim int, clusters []partition.Cluster, vecs [][][]float64) *Partitioned {
	rng := rand.New(rand.NewSource(1))
	cfg := tinyPartitionedConfig(1.0)
	ae := nn.NewAutoencoder(rng, dim, cfg.Model.AEHidden, cfg.Model.AELatent)
	p := &Partitioned{
		pcfg:        cfg,
		dim:         dim,
		dist:        distance.Euclidean,
		ae:          ae,
		part:        partition.Restore(partition.CoverTree, clusters, false, false),
		clusterVecs: vecs,
	}
	for range clusters {
		p.locals = append(p.locals, NewNetWithAE(rng, dim, cfg.Model, ae))
	}
	return p
}

// Inserting near an empty cluster's ball must land the vector there (and
// grow the ball if the vector falls outside it), not in a populated
// cluster farther away.
func TestApplyInsertIntoEmptyCluster(t *testing.T) {
	dim := 3
	clusters := []partition.Cluster{
		{Members: []int{0, 1}, Balls: []partition.Ball{{Center: []float64{0, 0, 0}, Radius: 1}}},
		{Members: nil, Balls: []partition.Ball{{Center: []float64{10, 10, 10}, Radius: 1}}},
	}
	vecs := [][][]float64{
		{{0.1, 0, 0}, {0, 0.1, 0}},
		{}, // empty cluster
	}
	p := handBuiltPartitioned(dim, clusters, vecs)
	p.ApplyInsert([][]float64{{10, 10, 12}})
	sizes := p.ClusterSizes()
	if sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("insert landed wrong: sizes %v, want [2 1]", sizes)
	}
	// The vector is at distance 2 from the empty cluster's center, outside
	// its radius-1 ball: the radius must grow so the indicator stays sound.
	if r := p.part.Clusters[1].Balls[0].Radius; r < 2 {
		t.Fatalf("ball radius %v not grown to cover inserted vector", r)
	}
	// The inserted vector must be visible in the empty cluster's labels.
	if y := p.localLabel(1, []float64{10, 10, 12}, 0); y != 1 {
		t.Fatalf("inserted vector not labelled in empty cluster: %v", y)
	}
}

// With no balls anywhere, insertion falls back to a ball-less cluster
// instead of panicking or dropping the vector.
func TestApplyInsertNoBallsFallback(t *testing.T) {
	dim := 2
	clusters := []partition.Cluster{{Members: nil}, {Members: nil}}
	p := handBuiltPartitioned(dim, clusters, [][][]float64{{}, {}})
	p.ApplyInsert([][]float64{{1, 2}})
	total := 0
	for _, s := range p.ClusterSizes() {
		total += s
	}
	if total != 1 {
		t.Fatalf("inserted vector lost: sizes %v", p.ClusterSizes())
	}
}

// Deleting from a model with an empty cluster, and deleting vectors
// absent from every cluster, must both be harmless no-ops.
func TestApplyDeleteAbsentAndEmptyCluster(t *testing.T) {
	dim := 3
	clusters := []partition.Cluster{
		{Members: []int{0}, Balls: []partition.Ball{{Center: []float64{0, 0, 0}, Radius: 1}}},
		{Members: nil, Balls: []partition.Ball{{Center: []float64{5, 5, 5}, Radius: 1}}},
	}
	p := handBuiltPartitioned(dim, clusters, [][][]float64{{{0.5, 0, 0}}, {}})
	p.ApplyDelete([][]float64{{9, 9, 9}, {5, 5, 5}})
	if sizes := p.ClusterSizes(); sizes[0] != 1 || sizes[1] != 0 {
		t.Fatalf("absent delete changed sizes: %v", sizes)
	}
	// Delete the one real vector; a second delete of it is then a no-op.
	p.ApplyDelete([][]float64{{0.5, 0, 0}})
	p.ApplyDelete([][]float64{{0.5, 0, 0}})
	if sizes := p.ClusterSizes(); sizes[0] != 0 || sizes[1] != 0 {
		t.Fatalf("delete did not empty cluster exactly once: %v", sizes)
	}
}

// Mixed insert/delete batches must preserve the invariant
// sum(ClusterSizes) == initial + inserts - (deletes that matched).
func TestClusterSizeInvariantAfterMixedBatches(t *testing.T) {
	db, wl := testWorkload(38, 250, 4, 6, 3)
	rng := rand.New(rand.NewSource(39))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	total := func() int {
		s := 0
		for _, n := range p.ClusterSizes() {
			s += n
		}
		return s
	}
	want := total()
	present := make([][]float64, 0)
	for op := 0; op < 20; op++ {
		if rng.Intn(2) == 0 {
			batch := make([][]float64, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = freshVec(rng, db.Dim)
			}
			p.ApplyInsert(batch)
			present = append(present, batch...)
			want += len(batch)
		} else {
			batch := make([][]float64, 0, 3)
			// One vector we know is present (if any), one absent.
			if len(present) > 0 {
				i := rng.Intn(len(present))
				batch = append(batch, present[i])
				present = append(present[:i], present[i+1:]...)
				want--
			}
			batch = append(batch, []float64{77, 77, 77, 77})
			p.ApplyDelete(batch)
		}
		if got := total(); got != want {
			t.Fatalf("op %d: total %d, want %d", op, got, want)
		}
	}
}

// freshVec draws a random vector; continuous coordinates make an exact
// value collision with an existing vector impossible in practice, so
// delete-by-value hits exactly the vectors this test inserted.
func freshVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = 1 + rng.Float64()
	}
	return v
}

func TestPartitionedEstimateNonNegative(t *testing.T) {
	db, wl := testWorkload(32, 150, 4, 5, 3)
	rng := rand.New(rand.NewSource(33))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	for i := 0; i < 20; i++ {
		x := db.Vecs[rng.Intn(db.Size())]
		if v := p.Estimate(x, rng.Float64()*wl.TMax); v < 0 {
			t.Fatalf("negative estimate %v", v)
		}
	}
}

func TestIndicatorMatrixMatchesIndicator(t *testing.T) {
	db, wl := testWorkload(34, 200, 4, 6, 3)
	rng := rand.New(rand.NewSource(35))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	qs := wl.Queries[:10]
	mat := p.indicatorMatrix(qs)
	for qi, q := range qs {
		ind := p.part.Indicator(q.X, q.T)
		for ci := range ind {
			want := 0.0
			if ind[ci] {
				want = 1.0
			}
			if mat[ci].At(qi, 0) != want {
				t.Fatalf("indicator matrix mismatch at query %d cluster %d", qi, ci)
			}
		}
	}
}

func TestPartitionedMAE(t *testing.T) {
	db, wl := testWorkload(36, 150, 4, 5, 3)
	rng := rand.New(rand.NewSource(37))
	p := NewPartitioned(rng, db, tinyPartitionedConfig(wl.TMax))
	if p.MAE(nil) != 0 {
		t.Fatalf("empty MAE should be 0")
	}
	mae := p.MAE(wl.Queries[:10])
	if mae < 0 || math.IsNaN(mae) {
		t.Fatalf("bad MAE %v", mae)
	}
}

// After ApplyInsert grows radii, the indicator (with its norm bound) of
// the model and of its Clone must still equal the definition
// L2(x, c) <= t + r over every ball; the clone recomputes the center
// norms on load, since they are not serialized.
func TestIndicatorExactAfterInsertAndClone(t *testing.T) {
	db, wl := testWorkload(38, 300, 6, 8, 4)
	p := NewPartitioned(rand.New(rand.NewSource(39)), db, tinyPartitionedConfig(wl.TMax))
	rng := rand.New(rand.NewSource(40))
	var inserted [][]float64
	for i := 0; i < 6; i++ {
		v := append([]float64(nil), db.Vecs[rng.Intn(db.Size())]...)
		for j := range v {
			v[j] += 2 * rng.NormFloat64()
		}
		inserted = append(inserted, v)
	}
	radii := func() (sum float64) {
		for _, cl := range p.part.Clusters {
			for _, b := range cl.Balls {
				sum += b.Radius
			}
		}
		return sum
	}
	before := radii()
	p.ApplyInsert(inserted)
	if radii() <= before {
		t.Fatal("no inserted vector grew a radius")
	}
	c, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	queries := append(inserted, wl.Queries[0].X, wl.Queries[4].X)
	for _, x := range queries {
		for _, tq := range []float64{0, wl.TMax / 8, wl.TMax / 2, wl.TMax} {
			got, cloned := p.part.Indicator(x, tq), c.part.Indicator(x, tq)
			for ci, cl := range p.part.Clusters {
				want := false
				for _, b := range cl.Balls {
					want = want || distance.L2(x, b.Center) <= tq+b.Radius
				}
				if got[ci] != want || cloned[ci] != want {
					t.Fatalf("x %v t %v cluster %d: indicator %v, clone %v, definition %v", x, tq, ci, got[ci], cloned[ci], want)
				}
			}
		}
	}
}
