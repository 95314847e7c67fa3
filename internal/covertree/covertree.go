// Package covertree implements a simplified cover tree (in the style of
// Izbicki & Shelton, ICML'15) over a vector database. SelNet uses it to
// partition the database into ball-shaped regions (paper Sec. 5.3): the
// tree is expanded top-down until every subtree holds fewer than r*|D|
// points, and the resulting subtrees become partition regions. The tree
// also supports exact range counting and k-nearest-neighbour search with
// metric pruning, which the test-suite uses to validate ground truth.
//
// The tree requires a metric distance. Cosine workloads are handled one
// level up (package partition) via the unit-vector cosine<->Euclidean
// equivalence.
package covertree

import (
	"fmt"
	"math"
	"sort"
)

// DistFunc computes the distance between two vectors.
type DistFunc func(a, b []float64) float64

// maxLevel bounds root raising; 2^60 exceeds any realistic spread.
const maxLevel = 60

// Node is one cover-tree vertex. Every node owns exactly one point (by
// index into the tree's vector slice) and covers its descendants within
// covdist = 2^Level.
type Node struct {
	Index    int // index of the node's point
	Level    int
	Children []*Node

	size   int     // points in this subtree (including own)
	radius float64 // exact max distance from own point to any descendant point
}

// Tree is a cover tree over a fixed set of vectors.
type Tree struct {
	vecs [][]float64
	dist DistFunc
	root *Node
}

// Build constructs a cover tree over vecs by sequential insertion.
func Build(vecs [][]float64, dist DistFunc) *Tree {
	if len(vecs) == 0 {
		panic("covertree: no vectors")
	}
	t := &Tree{vecs: vecs, dist: dist}
	t.root = &Node{Index: 0, Level: 8}
	for i := 1; i < len(vecs); i++ {
		t.insert(i)
	}
	t.computeStats(t.root)
	return t
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.root.size }

func covdist(level int) float64 { return math.Pow(2, float64(level)) }

func (t *Tree) insert(idx int) {
	x := t.vecs[idx]
	d := t.dist(t.vecs[t.root.Index], x)
	// Raise the root until it covers the new point.
	for d > covdist(t.root.Level) && t.root.Level < maxLevel {
		t.root.Level++
	}
	t.insertAt(t.root, idx, x)
}

func (t *Tree) insertAt(p *Node, idx int, x []float64) {
	for {
		var next *Node
		for _, c := range p.Children {
			if t.dist(t.vecs[c.Index], x) <= covdist(c.Level) {
				next = c
				break
			}
		}
		if next == nil {
			p.Children = append(p.Children, &Node{Index: idx, Level: p.Level - 1})
			return
		}
		p = next
	}
}

// computeStats fills subtree sizes and exact subtree radii bottom-up.
func (t *Tree) computeStats(n *Node) (size int, radius float64) {
	n.size = 1
	n.radius = 0
	own := t.vecs[n.Index]
	for _, c := range n.Children {
		cs, _ := t.computeStats(c)
		n.size += cs
		// Exact radius: max over descendant points of distance to own point.
		// Walk the child subtree; cheaper bounds exist but exactness gives
		// tighter partition balls and better pruning.
		t.walk(c, func(m *Node) {
			if d := t.dist(own, t.vecs[m.Index]); d > n.radius {
				n.radius = d
			}
		})
	}
	return n.size, n.radius
}

func (t *Tree) walk(n *Node, f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		t.walk(c, f)
	}
}

// RangeCount returns the exact number of indexed points within distance
// threshold of x, using ball pruning: a subtree is counted wholesale when
// fully inside the range and skipped when fully outside.
func (t *Tree) RangeCount(x []float64, threshold float64) int {
	return t.rangeCount(t.root, x, threshold)
}

func (t *Tree) rangeCount(n *Node, x []float64, threshold float64) int {
	d := t.dist(x, t.vecs[n.Index])
	if d+n.radius <= threshold {
		return n.size // whole subtree inside
	}
	if d-n.radius > threshold {
		return 0 // whole subtree outside
	}
	count := 0
	if d <= threshold {
		count = 1
	}
	for _, c := range n.Children {
		count += t.rangeCount(c, x, threshold)
	}
	return count
}

// KNN returns the indices of the k nearest points to x, ordered by
// increasing distance. If k exceeds the tree size, all points are
// returned.
func (t *Tree) KNN(x []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > t.Size() {
		k = t.Size()
	}
	h := &knnHeap{}
	t.knn(t.root, x, k, h)
	// Extract sorted ascending.
	out := make([]int, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = h.pop().index
	}
	return out
}

func (t *Tree) knn(n *Node, x []float64, k int, h *knnHeap) {
	d := t.dist(x, t.vecs[n.Index])
	if len(h.items) < k {
		h.push(knnItem{index: n.Index, dist: d})
	} else if d < h.worst() {
		h.pop()
		h.push(knnItem{index: n.Index, dist: d})
	}
	if len(h.items) == k && d-n.radius > h.worst() {
		return // no descendant can improve the heap
	}
	// Visit children closest-first for better pruning.
	type cd struct {
		c *Node
		d float64
	}
	order := make([]cd, len(n.Children))
	for i, c := range n.Children {
		order[i] = cd{c, t.dist(x, t.vecs[c.Index])}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].d < order[j].d })
	for _, o := range order {
		if len(h.items) == k && o.d-o.c.radius > h.worst() {
			continue
		}
		t.knn(o.c, x, k, h)
	}
}

type knnItem struct {
	index int
	dist  float64
}

// knnHeap is a max-heap on distance, holding the current k best.
type knnHeap struct{ items []knnItem }

func (h *knnHeap) worst() float64 { return h.items[0].dist }

func (h *knnHeap) push(it knnItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist >= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *knnHeap) pop() knnItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h.items) && h.items[l].dist > h.items[largest].dist {
			largest = l
		}
		if r < len(h.items) && h.items[r].dist > h.items[largest].dist {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}

// Region is one ball-shaped partition piece: the set of point indices in a
// truncated subtree plus its bounding ball.
type Region struct {
	Center  []float64 // the subtree root's point
	Radius  float64   // exact subtree radius
	Members []int     // indices of all points in the subtree
}

// Partition truncates the tree top-down: a subtree is expanded while it
// holds more than maxSize points, and each unexpanded subtree becomes one
// region (paper Sec. 5.3: "cover tree will not expand its nodes if the
// number of data inside is smaller than r|D|"). When an expanded node's
// own point must be emitted, it forms a singleton region.
func (t *Tree) Partition(maxSize int) []Region {
	if maxSize < 1 {
		maxSize = 1
	}
	var regions []Region
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.size <= maxSize || len(n.Children) == 0 {
			regions = append(regions, t.regionOf(n))
			return
		}
		// Expand: own point becomes a singleton region, children recurse.
		regions = append(regions, Region{
			Center:  t.vecs[n.Index],
			Radius:  0,
			Members: []int{n.Index},
		})
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.root)
	return regions
}

func (t *Tree) regionOf(n *Node) Region {
	r := Region{Center: t.vecs[n.Index], Radius: n.radius}
	t.walk(n, func(m *Node) { r.Members = append(r.Members, m.Index) })
	return r
}

// CheckInvariants validates the covering invariant (children within the
// parent's covering distance), level ordering, subtree sizes, radii, and
// that every point index appears exactly once. It returns an error
// describing the first violation found.
func (t *Tree) CheckInvariants() error {
	seen := make(map[int]bool, t.Size())
	var rec func(n *Node) (int, error)
	rec = func(n *Node) (int, error) {
		if seen[n.Index] {
			return 0, fmt.Errorf("covertree: point %d appears twice", n.Index)
		}
		seen[n.Index] = true
		size := 1
		own := t.vecs[n.Index]
		for _, c := range n.Children {
			if c.Level >= n.Level {
				return 0, fmt.Errorf("covertree: child level %d >= parent level %d", c.Level, n.Level)
			}
			if d := t.dist(own, t.vecs[c.Index]); d > covdist(n.Level)+1e-9 {
				return 0, fmt.Errorf("covertree: child %d at distance %v exceeds covdist %v", c.Index, d, covdist(n.Level))
			}
			cs, err := rec(c)
			if err != nil {
				return 0, err
			}
			size += cs
		}
		if size != n.size {
			return 0, fmt.Errorf("covertree: node %d size %d, recorded %d", n.Index, size, n.size)
		}
		var maxD float64
		t.walk(n, func(m *Node) {
			if d := t.dist(own, t.vecs[m.Index]); d > maxD {
				maxD = d
			}
		})
		if math.Abs(maxD-n.radius) > 1e-9 {
			return 0, fmt.Errorf("covertree: node %d radius %v, recorded %v", n.Index, maxD, n.radius)
		}
		return size, nil
	}
	total, err := rec(t.root)
	if err != nil {
		return err
	}
	if total != len(t.vecs) {
		return fmt.Errorf("covertree: tree holds %d points, expected %d", total, len(t.vecs))
	}
	return nil
}
