// Package knn is the shared exact nearest-neighbour engine under every
// continuous estimator in this repository: the KSG multi-information
// estimator and the Kozachenko–Leonenko entropy estimator (package
// infotheory) and the Frenzel–Pompe conditional mutual-information
// estimator (package infodynamics). It replaces four private O(m²)
// sort-based distance sweeps with one sub-quadratic core.
//
// A Tree indexes m points stored as contiguous rows of a flat []float64
// and answers two query shapes exactly:
//
//   - KNearest: the k nearest neighbours of a query point, sorted by
//     (distance, index) with deterministic index tie-breaking;
//   - CountWithin: the number of points strictly (or inclusively) within
//     a radius.
//
// Two metrics cover every estimator in the repository:
//
//   - MaxEuclidean2 — the paper's joint metric (Eq. 19): the maximum over
//     variable blocks of the per-block squared Euclidean distance.
//     Distances are reported in squared space (monotonic, so ordering and
//     counts are unchanged). A single block spanning all coordinates is
//     plain squared Euclidean distance (the KL entropy metric).
//   - Chebyshev — max over coordinates of |Δ|, the max-norm of the
//     Frenzel–Pompe estimator.
//
// # Equivalence contract
//
// Results are bit-identical to a brute-force sweep that evaluates the
// same floating-point distance expression (a sequential sum of squared
// coordinate differences per block, maxed across blocks): candidate
// distances are computed by exactly that expression, and the tree's
// box/axis bounds are computed with elementwise-dominating terms summed
// in the same coordinate order, so IEEE rounding monotonicity guarantees
// a bound never misranks a point it gates. Subtree pruning and
// bulk-acceptance use strict inequalities wherever an equal-distance
// point could still matter (index tie-breaks, inclusive counts), so ties
// resolve exactly as the brute path resolves them.
//
// Trees are rebuildable in place: after warm-up, Rebuild over same-shaped
// inputs performs no heap allocation (the spatial.DenseGrid /
// align.Aligner recycle pattern). Queries never mutate the tree, so one
// tree serves concurrent readers; per-query scratch (the Neighbor
// buffer) is caller-provided.
package knn

import (
	"math"
	"sort"
)

// Metric selects the distance kernel of a Tree.
type Metric int

const (
	// MaxEuclidean2 is the paper's joint metric (Eq. 19) in squared
	// space: max over blocks of the block's squared Euclidean distance.
	MaxEuclidean2 Metric = iota
	// Chebyshev is the L∞ metric: max over coordinates of |Δ|.
	Chebyshev
)

// Block is one variable's coordinate range within a row.
type Block struct{ Off, Len int }

// Neighbor is one kNN result: the point's row index and its distance to
// the query in the metric's comparison space (squared for MaxEuclidean2,
// plain for Chebyshev).
type Neighbor struct {
	Index int32
	Dist  float64
}

// TreeDimLimit is the dimension above which Rebuild skips building tree
// nodes and queries fall back to a flat scan with early-exit partial
// distances. Past ~16 dimensions a k-d tree on estimator-sized point sets
// prunes almost nothing and the node traversal overhead makes it slower
// than the scan; both paths honour the same equivalence contract. Tests
// override it to force either path.
var TreeDimLimit = 16

type treeNode struct {
	index       int32 // point row
	left, right int32 // node indices, -1 for none
	count       int32 // subtree size including self
	axis        int32
}

// Tree is a rebuildable exact-kNN index over the rows of a flat matrix.
// The zero value is ready for Rebuild.
type Tree struct {
	metric Metric
	dim    int
	blocks []Block
	pts    []float64 // referenced, not copied; row j at [j*dim, (j+1)*dim)
	n      int
	built  bool // tree nodes present; otherwise queries scan

	nodes     []treeNode
	boxes     []float64 // per node: dim lows then dim highs
	root      int32
	idx       []int32
	sorter    axisSorter
	ownBlocks [1]Block // storage for the implicit whole-row block
}

// Rebuild reconstructs the index over a new point set in place, reusing
// node, box and index storage of previous builds. pts holds n rows of dim
// coordinates each and is referenced (not copied) for the lifetime of the
// queries, so it must stay unmodified until the next Rebuild. blocks
// partitions the row for MaxEuclidean2 (nil means one block spanning the
// row); it is ignored by Chebyshev. The blocks slice is referenced, not
// copied.
func (t *Tree) Rebuild(pts []float64, n, dim int, metric Metric, blocks []Block) {
	if dim <= 0 || n < 0 || len(pts) < n*dim {
		panic("knn: Rebuild needs n rows of dim coordinates")
	}
	t.metric = metric
	t.dim = dim
	t.pts = pts
	t.n = n
	if metric == Chebyshev || blocks == nil {
		t.ownBlocks[0] = Block{0, dim}
		t.blocks = t.ownBlocks[:]
	} else {
		t.blocks = blocks
	}
	t.nodes = t.nodes[:0]
	t.boxes = t.boxes[:0]
	t.root = -1
	t.built = dim <= TreeDimLimit && n > 0
	if !t.built {
		return
	}
	if cap(t.idx) < n {
		t.idx = make([]int32, n)
	}
	t.idx = t.idx[:n]
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.root = t.build(t.idx, 0)
	t.sorter = axisSorter{}
}

// Release drops the tree's references to caller-owned data (points,
// blocks) and marks it empty, while keeping the internal node, box
// and index storage for the next Rebuild. Pools call this so an idle
// tree never pins a dataset's row slab.
func (t *Tree) Release() {
	t.pts = nil
	t.blocks = nil
	t.n = 0
	t.built = false
	t.root = -1
	t.nodes = t.nodes[:0]
	t.boxes = t.boxes[:0]
}

// RetainedBytes reports the bytes of internal storage the tree keeps
// across Rebuilds (node, box and index capacity). References to
// caller-owned slices (pts, blocks) are not counted — Release drops
// those.
func (t *Tree) RetainedBytes() int {
	const nodeBytes = 16 // treeNode: four int32 fields
	return cap(t.nodes)*nodeBytes + cap(t.boxes)*8 + cap(t.idx)*4
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.n }

// TreeBacked reports whether queries run on tree nodes (as opposed to the
// flat-scan fallback).
func (t *Tree) TreeBacked() bool { return t.built }

// axisSorter sorts an index slice by one coordinate with a deterministic
// index tie-break, as a reusable sort.Interface (a sort.Slice closure
// would allocate per node).
type axisSorter struct {
	idx  []int32
	pts  []float64
	dim  int
	axis int
}

func (s *axisSorter) Len() int      { return len(s.idx) }
func (s *axisSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *axisSorter) Less(a, b int) bool {
	ca := s.pts[int(s.idx[a])*s.dim+s.axis]
	cb := s.pts[int(s.idx[b])*s.dim+s.axis]
	if ca != cb {
		return ca < cb
	}
	return s.idx[a] < s.idx[b]
}

func (t *Tree) build(idx []int32, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := t.widestAxis(idx)
	t.sorter = axisSorter{idx: idx, pts: t.pts, dim: t.dim, axis: axis}
	sort.Sort(&t.sorter)
	mid := len(idx) / 2
	t.nodes = append(t.nodes, treeNode{
		index: idx[mid],
		left:  -1,
		right: -1,
		count: int32(len(idx)),
		axis:  int32(axis),
	})
	self := int32(len(t.nodes) - 1)
	// Reserve the node's box; filled bottom-up after the children exist.
	t.boxes = append(t.boxes, t.pts[int(idx[mid])*t.dim:(int(idx[mid])+1)*t.dim]...)
	t.boxes = append(t.boxes, t.pts[int(idx[mid])*t.dim:(int(idx[mid])+1)*t.dim]...)
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[self].left = left
	t.nodes[self].right = right
	t.mergeBox(self, left)
	t.mergeBox(self, right)
	return self
}

// widestAxis returns the coordinate with the largest spread over the
// given points — the classic k-d split heuristic. With cycling axes a
// deep point set splits only its first ~log₂(n) coordinates; spread-based
// splits keep pruning effective when the dimension approaches
// TreeDimLimit. The choice only shapes the tree; result exactness never
// depends on it. Ties resolve to the lowest axis, keeping builds
// deterministic.
func (t *Tree) widestAxis(idx []int32) int {
	axis, best := 0, -1.0
	for a := 0; a < t.dim; a++ {
		lo, hi := t.pts[int(idx[0])*t.dim+a], t.pts[int(idx[0])*t.dim+a]
		for _, j := range idx[1:] {
			c := t.pts[int(j)*t.dim+a]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if spread := hi - lo; spread > best {
			axis, best = a, spread
		}
	}
	return axis
}

// mergeBox widens node ni's bounding box to cover child ci's box.
func (t *Tree) mergeBox(ni, ci int32) {
	if ci < 0 {
		return
	}
	dst := t.boxes[int(ni)*2*t.dim : (int(ni)*2+2)*t.dim]
	src := t.boxes[int(ci)*2*t.dim : (int(ci)*2+2)*t.dim]
	for i := 0; i < t.dim; i++ {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
		if src[t.dim+i] > dst[t.dim+i] {
			dst[t.dim+i] = src[t.dim+i]
		}
	}
}

// dist returns the metric distance between q and point row j, evaluated
// with the exact floating-point expression of the brute-force reference
// (sequential per-block sums in coordinate order, maxed across blocks).
// If the running value exceeds bound the evaluation stops and reports
// ok = false; the partial value is a lower bound on the true distance, so
// the caller may reject the point but must not use the value otherwise.
func (t *Tree) dist(q []float64, j int32, bound float64) (d float64, ok bool) {
	p := t.pts[int(j)*t.dim : (int(j)+1)*t.dim]
	if t.metric == Chebyshev {
		var worst float64
		for i := range q {
			d := math.Abs(q[i] - p[i])
			if d > worst {
				if d > bound {
					return d, false
				}
				worst = d
			}
		}
		return worst, true
	}
	var worst float64
	for _, b := range t.blocks {
		var s float64
		for i := b.Off; i < b.Off+b.Len; i++ {
			diff := q[i] - p[i]
			s += diff * diff
			if s > bound {
				// Partial sums of non-negative terms are
				// non-decreasing under IEEE rounding, so the full
				// block sum — and the max over blocks — can only be
				// larger.
				return s, false
			}
		}
		if s > worst {
			worst = s
		}
	}
	return worst, true
}

// minDistBox returns a lower bound on the distance from q to any point in
// node ni's bounding box, computed so that bound ≤ dist holds for the
// floating-point values the dist method actually produces (dominated
// terms, same summation order).
func (t *Tree) minDistBox(ni int32, q []float64) float64 {
	lo := t.boxes[int(ni)*2*t.dim : int(ni)*2*t.dim+t.dim]
	hi := t.boxes[int(ni)*2*t.dim+t.dim : (int(ni)*2+2)*t.dim]
	if t.metric == Chebyshev {
		var worst float64
		for i := range q {
			var m float64
			if q[i] < lo[i] {
				m = lo[i] - q[i]
			} else if q[i] > hi[i] {
				m = q[i] - hi[i]
			}
			if m > worst {
				worst = m
			}
		}
		return worst
	}
	var worst float64
	for _, b := range t.blocks {
		var s float64
		for i := b.Off; i < b.Off+b.Len; i++ {
			var m float64
			if q[i] < lo[i] {
				m = lo[i] - q[i]
			} else if q[i] > hi[i] {
				m = q[i] - hi[i]
			}
			s += m * m
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// maxDistBox returns an upper bound on the distance from q to any point
// in node ni's bounding box, with the same floating-point domination
// guarantee as minDistBox.
func (t *Tree) maxDistBox(ni int32, q []float64) float64 {
	lo := t.boxes[int(ni)*2*t.dim : int(ni)*2*t.dim+t.dim]
	hi := t.boxes[int(ni)*2*t.dim+t.dim : (int(ni)*2+2)*t.dim]
	if t.metric == Chebyshev {
		var worst float64
		for i := range q {
			m := q[i] - lo[i]
			if h := hi[i] - q[i]; h > m {
				m = h
			}
			if m > worst {
				worst = m
			}
		}
		return worst
	}
	var worst float64
	for _, b := range t.blocks {
		var s float64
		for i := b.Off; i < b.Off+b.Len; i++ {
			m := q[i] - lo[i]
			if h := hi[i] - q[i]; h > m {
				m = h
			}
			s += m * m
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// knnState is the mutable state of one KNearest query; it lives on the
// caller's stack so concurrent queries over one tree are safe.
type knnState struct {
	q       []float64
	k       int
	exclude int32
	dst     []Neighbor
}

// nbLess orders candidates by (Dist, Index) — the total order every
// result set is sorted by.
func nbLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Index < b.Index
}

// consider offers point j as a kNN candidate, maintaining dst as the k
// best seen so far, sorted ascending by (Dist, Index).
func (st *knnState) consider(t *Tree, j int32) {
	bound := math.Inf(1)
	if len(st.dst) == st.k {
		bound = st.dst[st.k-1].Dist
	}
	d, ok := t.dist(st.q, j, bound)
	if !ok {
		return
	}
	nb := Neighbor{Index: j, Dist: d}
	if len(st.dst) == st.k {
		if !nbLess(nb, st.dst[st.k-1]) {
			return
		}
		st.dst = st.dst[:st.k-1]
	}
	i := len(st.dst)
	st.dst = append(st.dst, nb)
	for i > 0 && nbLess(nb, st.dst[i-1]) {
		st.dst[i] = st.dst[i-1]
		i--
	}
	st.dst[i] = nb
}

// KNearest returns the min(k, Len()-|{exclude}|) nearest neighbours of q,
// sorted ascending by (distance, index) — exactly the prefix a
// brute-force (distance, index) sort would produce. exclude names a row
// to skip (the query's own row), or -1. dst is the caller's scratch; the
// result aliases it (grown if needed).
func (t *Tree) KNearest(q []float64, k int, exclude int32, dst []Neighbor) []Neighbor {
	dst = dst[:0]
	if k <= 0 || t.n == 0 {
		return dst
	}
	st := knnState{q: q, k: k, exclude: exclude, dst: dst}
	if t.built {
		t.searchKNN(t.root, &st)
	} else {
		for j := 0; j < t.n; j++ {
			if int32(j) == exclude {
				continue
			}
			st.consider(t, int32(j))
		}
	}
	return st.dst
}

func (t *Tree) searchKNN(ni int32, st *knnState) {
	if ni < 0 {
		return
	}
	nd := &t.nodes[ni]
	if len(st.dst) == st.k && nd.count > 1 {
		// Box pruning: every point in the subtree is at least
		// minDistBox away; a strictly worse subtree cannot supply a
		// neighbour (equal distances must still descend for the index
		// tie-break).
		if t.minDistBox(ni, st.q) > st.dst[st.k-1].Dist {
			return
		}
	}
	if nd.index != st.exclude {
		st.consider(t, nd.index)
	}
	axis := int(nd.axis)
	delta := st.q[axis] - t.pts[int(nd.index)*t.dim+axis]
	near, far := nd.left, nd.right
	if delta > 0 {
		near, far = far, near
	}
	t.searchKNN(near, st)
	if len(st.dst) < st.k {
		t.searchKNN(far, st)
		return
	}
	gap := delta * delta
	if t.metric == Chebyshev {
		gap = math.Abs(delta)
	}
	// The splitting-plane gap lower-bounds the distance to every far-side
	// point; equality descends for the tie-break.
	if gap <= st.dst[st.k-1].Dist {
		t.searchKNN(far, st)
	}
}

// CountWithin returns the number of indexed points within radius r of q:
// strictly (dist < r) by default, inclusively (dist ≤ r) when inclusive
// is set. r is in the metric's comparison space (squared for
// MaxEuclidean2). If exclude is ≥ 0 it must be the row index holding
// exactly q's coordinates (the usual self-exclusion of the estimators);
// its guaranteed zero self-distance is subtracted from bulk-accepted
// subtrees rather than threaded through the traversal.
func (t *Tree) CountWithin(q []float64, r float64, inclusive bool, exclude int32) int {
	var c int
	if t.built {
		c = t.countNode(t.root, q, r, inclusive)
		if exclude >= 0 && (r > 0 || (inclusive && r == 0)) {
			c--
		}
		return c
	}
	for j := 0; j < t.n; j++ {
		if int32(j) == exclude {
			continue
		}
		d, ok := t.dist(q, int32(j), r)
		if !ok {
			continue
		}
		if d < r || (inclusive && d == r) {
			c++
		}
	}
	return c
}

func (t *Tree) countNode(ni int32, q []float64, r float64, inclusive bool) int {
	if ni < 0 {
		return 0
	}
	minD := t.minDistBox(ni, q)
	// Reject the subtree only when every point must fail the predicate.
	if minD > r || (!inclusive && minD == r) {
		return 0
	}
	nd := &t.nodes[ni]
	maxD := t.maxDistBox(ni, q)
	if maxD < r || (inclusive && maxD == r) {
		return int(nd.count)
	}
	var c int
	if d, ok := t.dist(q, nd.index, r); ok && (d < r || (inclusive && d == r)) {
		c = 1
	}
	return c + t.countNode(nd.left, q, r, inclusive) + t.countNode(nd.right, q, r, inclusive)
}
