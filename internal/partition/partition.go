// Package partition implements the data-partitioning layer of SelNet
// (paper Sec. 5.3): the database is divided into K disjoint clusters, a
// local model is trained per cluster, and at estimation time the indicator
// f_c(x, t) selects the clusters whose region intersects the query ball.
//
// Three strategies are provided, matching Table 10 of the paper:
//
//   - CoverTree: partition via a cover tree truncated at ratio*|D| points
//     per subtree, then greedily merge the resulting regions into K
//     size-balanced clusters (the paper's default).
//   - Random: uniform random assignment; the indicator degenerates to
//     all-ones (used for non-metric distances).
//   - KMeans: Lloyd's algorithm with k-means++ seeding.
//
// Cosine distance is handled through the unit-vector equivalence
// cos(u,v) = 1 - ||u-v||²/2: vectors are normalized and partitioned under
// Euclidean distance, and query thresholds are converted with
// distance.CosineToL2Threshold, exactly as the paper prescribes.
package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"selnet/internal/covertree"
	"selnet/internal/distance"
	"selnet/internal/vecdata"
)

// Method selects the partitioning strategy.
type Method int

// Supported partitioning strategies (Table 10: CT, RP, KM).
const (
	CoverTree Method = iota
	Random
	KMeans
)

// String returns the paper's abbreviation for the method.
func (m Method) String() string {
	switch m {
	case CoverTree:
		return "CT"
	case Random:
		return "RP"
	case KMeans:
		return "KM"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Ball is a bounding ball for a set of points, in the (possibly
// converted) metric space.
type Ball struct {
	Center []float64
	Radius float64

	// norm is ‖Center‖, the pivot of the indicator's skip bound. It is
	// derived, never serialized (gob skips unexported fields), and set
	// by withNorms wherever a Partitioning is constructed.
	norm float64
}

// Cluster is one partition piece: disjoint member indices plus the balls
// covering them (several balls when merged from multiple regions).
type Cluster struct {
	Members []int
	Balls   []Ball
}

// Partitioning is the result of partitioning a database.
type Partitioning struct {
	Method   Method
	Clusters []Cluster

	convert   bool // cosine dataset: balls live in normalized-l2 space
	allActive bool // indicator degenerates to all-ones (random partitioning)
}

// K returns the number of clusters.
func (p *Partitioning) K() int { return len(p.Clusters) }

// WireFlags exposes the unexported indicator flags for serialization.
func (p *Partitioning) WireFlags() (convert, allActive bool) {
	return p.convert, p.allActive
}

// Restore rebuilds a Partitioning from serialized parts; the inverse of
// reading Method, Clusters and WireFlags.
func Restore(method Method, clusters []Cluster, convert, allActive bool) *Partitioning {
	return withNorms(&Partitioning{Method: method, Clusters: clusters, convert: convert, allActive: allActive})
}

// withNorms fills in every ball's center norm and returns p.
func withNorms(p *Partitioning) *Partitioning {
	for _, c := range p.Clusters {
		for i := range c.Balls {
			c.Balls[i].norm = distance.Norm(c.Balls[i].Center)
		}
	}
	return p
}

// Indicator computes f_c(x, t): element i is true when the query ball
// intersects cluster i's region. For random partitioning every element is
// true, matching the paper's fallback for non-metric settings.
func (p *Partitioning) Indicator(x []float64, t float64) []bool {
	out := make([]bool, len(p.Clusters))
	p.IndicatorInto(out, make([]float64, len(x)), x, t)
	return out
}

// IndicatorInto is the allocation-free Indicator used by the serving hot
// path: out (len K) receives the per-cluster activations and qbuf
// (len(x), scratch) holds the normalized query for cosine datasets. out
// and qbuf are fully overwritten. It returns the number of exact ball
// tests (distance.L2Within calls) it made. The decisions are exactly
// those of L2(x, c) <= thr, with thr = t + radius, for each ball of
// center c:
//
//   - The triangle inequality bounds L2(x, c) >= |‖x‖ − ‖c‖|, so a ball
//     whose norm gap exceeds thr is out of reach. The gap must exceed
//     thr by 1e-9·(‖x‖ + ‖c‖) plus 2^-500 before the ball is skipped.
//     That margin is far more than the rounding of either norm and of
//     the distance (the 2^-500 floor covers squares that underflow), so
//     a skipped ball never passes the exact test. ‖x‖ is computed once
//     per call and ‖c‖ once per ball when the Partitioning is built. A
//     non-finite ‖x‖ turns the skip off; a NaN thr never skips.
//   - Every ball not skipped is decided by distance.L2Within, which
//     abandons a ball once a partial sum proves it out of reach.
//
// Each element is monotone in t: the distance does not depend on t,
// fl(t + radius) and distance.CosineToL2Threshold are non-decreasing,
// so a cluster active at t stays active at every larger t. A NaN t
// activates no cluster of a geometric partitioning.
func (p *Partitioning) IndicatorInto(out []bool, qbuf, x []float64, t float64) (tests int) {
	return p.indicatorInto(out, qbuf, x, t)
}

// indicatorInto is IndicatorInto under the name the package's tests
// call.
func (p *Partitioning) indicatorInto(out []bool, qbuf, x []float64, t float64) (tests int) {
	if p.allActive {
		for i := range out {
			out[i] = true
		}
		return 0
	}
	qx, qt, nx := p.query(qbuf, x, t)
	for i := range p.Clusters {
		var n int
		out[i], n = p.Clusters[i].within(qx, qt, nx)
		tests += n
	}
	return tests
}

// Active is element i of IndicatorInto(x, t), deciding cluster i alone
// with the same skip bound and exact tests; qbuf is as there. It also
// returns the number of exact ball tests it made.
func (p *Partitioning) Active(i int, qbuf, x []float64, t float64) (active bool, tests int) {
	if p.allActive {
		return true, 0
	}
	qx, qt, nx := p.query(qbuf, x, t)
	return p.Clusters[i].within(qx, qt, nx)
}

// query maps (x, t) into the balls' space — for cosine datasets the
// normalized query, written to qbuf, and the l2 threshold — and returns
// it with its norm.
func (p *Partitioning) query(qbuf, x []float64, t float64) (qx []float64, qt, nx float64) {
	qx, qt = x, t
	if p.convert {
		copy(qbuf, x)
		if n := distance.Norm(x); n != 0 {
			for i := range qbuf {
				qbuf[i] /= n
			}
		}
		qx = qbuf
		qt = distance.CosineToL2Threshold(t)
	}
	return qx, qt, distance.Norm(qx)
}

// within reports whether the query ball (qx, qt) of norm nx meets a
// ball of c, and the number of exact ball tests it made (see
// IndicatorInto for the skip bound).
func (c *Cluster) within(qx []float64, qt, nx float64) (active bool, tests int) {
	skip := nx <= math.MaxFloat64 // false for +Inf and NaN
	for _, b := range c.Balls {
		thr := qt + b.Radius
		if skip && math.Abs(nx-b.norm) > thr+1e-9*(nx+b.norm)+0x1p-500 {
			continue
		}
		tests++
		if distance.L2Within(qx, b.Center, thr) {
			return true, tests
		}
	}
	return false, tests
}

// PrimaryRegion attributes a query to the single cluster that "owns"
// it: among the clusters whose region the query ball intersects (the
// ones Indicator activates), the one whose nearest ball center is
// closest; when the ball misses every region, the globally nearest
// center — a query just outside all regions is still attributed to its
// neighborhood. Random partitionings (and empty ones) carry no
// geometry, so attribution is meaningless and -1 is returned.
//
// This is the error-attribution hook of the observability layer: shadow
// q-errors broken down by region expose which part of the data a
// partitioned model is mis-estimating.
func (p *Partitioning) PrimaryRegion(x []float64, t float64) int {
	if p.allActive || len(p.Clusters) == 0 {
		return -1
	}
	qx := x
	qt := t
	if p.convert {
		qx = distance.Normalize(x)
		qt = distance.CosineToL2Threshold(t)
	}
	best, bestD, bestActive := -1, math.Inf(1), false
	for i, c := range p.Clusters {
		for _, b := range c.Balls {
			d := distance.L2(qx, b.Center)
			active := d <= qt+b.Radius
			switch {
			case active && !bestActive:
				best, bestD, bestActive = i, d, true
			case active == bestActive && d < bestD:
				best, bestD = i, d
			}
		}
	}
	return best
}

// Build partitions db into k clusters using the given method. ratio is the
// cover-tree expansion bound (subtrees smaller than ratio*|D| stop
// expanding); it is ignored by the other methods. Building is
// deterministic given rng.
func Build(rng *rand.Rand, db *vecdata.Database, k int, ratio float64, method Method) *Partitioning {
	if k < 1 {
		panic("partition: k must be >= 1")
	}
	if k > db.Size() {
		k = db.Size()
	}
	convert := db.Dist == distance.Cosine
	space := db.Vecs
	if convert {
		space = make([][]float64, db.Size())
		for i, v := range db.Vecs {
			space[i] = distance.Normalize(v)
		}
	}
	switch method {
	case CoverTree:
		return buildCoverTree(space, k, ratio, convert)
	case Random:
		return buildRandom(rng, db.Size(), k)
	case KMeans:
		return buildKMeans(rng, space, k, convert)
	default:
		panic(fmt.Sprintf("partition: unknown method %d", int(method)))
	}
}

func buildCoverTree(space [][]float64, k int, ratio float64, convert bool) *Partitioning {
	maxSize := int(math.Ceil(ratio * float64(len(space))))
	if maxSize < 1 {
		maxSize = 1
	}
	tree := covertree.Build(space, distance.L2)
	regions := tree.Partition(maxSize)
	// Greedy merge (paper Sec. 5.3): sort regions by size descending, scan
	// and assign each to the currently smallest cluster.
	sort.Slice(regions, func(i, j int) bool { return len(regions[i].Members) > len(regions[j].Members) })
	clusters := make([]Cluster, k)
	sizes := make([]int, k)
	for _, r := range regions {
		smallest := 0
		for i := 1; i < k; i++ {
			if sizes[i] < sizes[smallest] {
				smallest = i
			}
		}
		clusters[smallest].Members = append(clusters[smallest].Members, r.Members...)
		clusters[smallest].Balls = append(clusters[smallest].Balls, Ball{Center: r.Center, Radius: r.Radius})
		sizes[smallest] += len(r.Members)
	}
	return withNorms(&Partitioning{Method: CoverTree, Clusters: nonEmpty(clusters), convert: convert})
}

func buildRandom(rng *rand.Rand, n, k int) *Partitioning {
	perm := rng.Perm(n)
	clusters := make([]Cluster, k)
	for i, idx := range perm {
		c := i % k
		clusters[c].Members = append(clusters[c].Members, idx)
	}
	return withNorms(&Partitioning{Method: Random, Clusters: nonEmpty(clusters), allActive: true})
}

func buildKMeans(rng *rand.Rand, space [][]float64, k int, convert bool) *Partitioning {
	centers := kmeansPlusPlusInit(rng, space, k)
	assign := make([]int, len(space))
	const maxIters = 25
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, v := range space {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := distance.SquaredL2(v, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, len(space[0]))
		}
		for i, v := range space {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				next[c][j] += x
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Re-seed empty cluster at a random point.
				next[c] = append([]float64(nil), space[rng.Intn(len(space))]...)
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
		}
		centers = next
	}
	clusters := make([]Cluster, k)
	for i := range space {
		c := assign[i]
		clusters[c].Members = append(clusters[c].Members, i)
	}
	for c := range clusters {
		if len(clusters[c].Members) == 0 {
			continue
		}
		var radius float64
		for _, m := range clusters[c].Members {
			if d := distance.L2(centers[c], space[m]); d > radius {
				radius = d
			}
		}
		clusters[c].Balls = []Ball{{Center: centers[c], Radius: radius}}
	}
	return withNorms(&Partitioning{Method: KMeans, Clusters: nonEmpty(clusters), convert: convert})
}

func kmeansPlusPlusInit(rng *rand.Rand, space [][]float64, k int) [][]float64 {
	centers := make([][]float64, 0, k)
	first := space[rng.Intn(len(space))]
	centers = append(centers, append([]float64(nil), first...))
	d2 := make([]float64, len(space))
	for len(centers) < k {
		var total float64
		last := centers[len(centers)-1]
		for i, v := range space {
			d := distance.SquaredL2(v, last)
			if len(centers) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with existing centers.
			centers = append(centers, append([]float64(nil), space[rng.Intn(len(space))]...))
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := len(space) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), space[pick]...))
	}
	return centers
}

func nonEmpty(clusters []Cluster) []Cluster {
	out := clusters[:0]
	for _, c := range clusters {
		if len(c.Members) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks that the clusters are disjoint and cover [0, n) exactly,
// and that every member lies inside one of its cluster's balls (for
// methods that maintain balls). It returns the first violation found.
func (p *Partitioning) Validate(db *vecdata.Database) error {
	seen := make(map[int]bool)
	total := 0
	for ci, c := range p.Clusters {
		for _, m := range c.Members {
			if m < 0 || m >= db.Size() {
				return fmt.Errorf("partition: cluster %d member %d out of range", ci, m)
			}
			if seen[m] {
				return fmt.Errorf("partition: point %d in multiple clusters", m)
			}
			seen[m] = true
			total++
		}
		if p.allActive || len(c.Balls) == 0 {
			continue
		}
		for _, m := range c.Members {
			v := db.Vecs[m]
			if p.convert {
				v = distance.Normalize(v)
			}
			inside := false
			for _, b := range c.Balls {
				if distance.L2(v, b.Center) <= b.Radius+1e-9 {
					inside = true
					break
				}
			}
			if !inside {
				return fmt.Errorf("partition: cluster %d member %d outside all balls", ci, m)
			}
		}
	}
	if total != db.Size() {
		return fmt.Errorf("partition: clusters cover %d of %d points", total, db.Size())
	}
	return nil
}
