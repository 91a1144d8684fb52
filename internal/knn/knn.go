// Package knn is the exact nearest-neighbour layer under every
// continuous estimator in this repository: the KSG multi-information
// estimator and the Kozachenko–Leonenko entropy estimator (package
// infotheory) and the Frenzel–Pompe conditional mutual-information
// estimator (package infodynamics).
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
// # Tree or scan
//
// Each index serves one query kind, which the caller names to Rebuild
// (Nearest or Count). Rebuild then either builds k-d tree nodes or
// leaves the index as a scan over its rows, looking the point count up
// in a table of crossovers that BenchmarkCrossover measured per query
// kind, metric, block width and dimension, and taking the path measured
// at the nearest size (see useTree); a shape the table does not hold
// keeps the tree up to 16 coordinates. At the paper's ensemble sizes
// the scan answers the KSG joints of 2-D observer variables and the KSG
// marginal counts; the tree keeps low-dimensional kNN queries, most
// Frenzel–Pompe indexes and the largest indexes. An index holding a
// non-finite coordinate always scans, as does a query with one.
//
// # Equivalence contract
//
// Brute ≡ tree ≡ scan: results are bit-identical to a brute-force sweep
// that evaluates the same floating-point distance expression (a
// sequential sum of squared coordinate differences per block, maxed
// across blocks, where a NaN block sum never raises the max). Every
// distance either path evaluates computes each block's full sum in
// coordinate order — the brute value itself — and tests its bound once
// per block: the max over blocks can only grow, so a block over the
// bound proves the point lies beyond it. Tree candidates and scan
// results go through one kernel per metric; the scans' screening loops
// evaluate the same block sum, unrolled for 2-coordinate blocks and for
// the 2-D count. On amd64 hosts with AVX2, three of those loops (the
// 2-D count, the one-block count and the 2-wide-block screen) run as
// assembly kernels whose every lane performs the Go loop's operations
// on the same operands in the same order, so they return the Go loop's
// count or row bit for bit; every other host runs the Go loops.
// The tree's box/axis bounds are computed with elementwise-dominating
// terms summed in the same coordinate order, so IEEE rounding
// monotonicity guarantees a bound never misranks a point it gates.
// Subtree pruning and bulk-acceptance use strict inequalities wherever
// an equal-distance point could still matter (index tie-breaks,
// inclusive counts), so ties resolve exactly as the brute path resolves
// them.
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

// Query names the one query kind an index serves. Rebuild uses it only
// to choose between tree nodes and a scan; both paths answer both kinds
// exactly, so it never changes a result.
type Query int

const (
	// Nearest indexes points for KNearest.
	Nearest Query = iota
	// Count indexes points for CountWithin.
	Count
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

// crossoverSizes are the index sizes BenchmarkCrossover measures.
var crossoverSizes = []int{128, 600, 2000, 5000, 20000, 50000}

// never marks a family dimension where the scan won at every size.
const never = math.MaxInt

// crossovers is useTree's table, one entry per index family: a query
// kind, a metric and a block width (0 for one block spanning the row,
// and for Chebyshev). from maps each dimension BenchmarkCrossover
// measured for the family to the smallest of crossoverSizes from which
// on the tree's median beat the scan's at every size, read off the
// benchmark's kind/shape/dim=…/n=… rows (medians of 4 runs on a 2-vCPU
// Intel Xeon VM, listed in DESIGN.md, "Tree or scan"). A dimension
// missing from a family was not measured.
var crossovers = []struct {
	query  Query
	metric Metric
	width  int
	from   map[int]int
}{
	// kNN, one block: the KL joints (knn/row rows).
	{Nearest, MaxEuclidean2, 0, map[int]int{1: 128, 2: 128, 3: 128, 4: 600, 5: 2000, 6: 2000, 7: 5000, 8: 5000,
		9: 20000, 10: 20000, 11: 20000, 12: 50000, 13: never, 14: never, 15: never, 16: never}},
	// kNN, KSG joints of 1-D variables (knn/1 rows).
	{Nearest, MaxEuclidean2, 1, map[int]int{2: 128, 3: 128, 4: 128, 5: 128, 6: 600}},
	// kNN, KSG joints of 2-D observer variables (knn/2 rows), against
	// the scan's AVX2 kernels.
	{Nearest, MaxEuclidean2, 2, map[int]int{4: 2000, 6: 5000, 8: 50000, 10: never, 12: never, 14: never, 16: never}},
	// kNN, the Frenzel–Pompe joints of active storage and transfer
	// entropy (knn/chebyshev rows).
	{Nearest, Chebyshev, 0, map[int]int{5: 128, 6: 600}},
	// Count, the KSG marginals at KSG-2 radii (count/row rows), against
	// the scan's AVX2 kernels.
	{Count, MaxEuclidean2, 0, map[int]int{1: 5000, 2: never, 3: 50000, 4: never, 5: never, 6: never,
		7: never, 8: never, 9: never, 10: never, 11: never, 12: never, 13: never, 14: never, 15: never, 16: never}},
	// Count, the Frenzel–Pompe subspaces (count/chebyshev rows).
	{Count, Chebyshev, 0, map[int]int{1: 128, 2: 600, 3: 600, 4: 2000}},
}

// treeDims is the tree's reach for a shape no crossover row measured:
// up to 16 coordinates, as before the measurement.
const treeDims = 16

// useTree reports whether an index of n points of dim coordinates, of
// the metric and blocks given, answers its query kind faster on tree
// nodes than by a scan, as the crossovers table measured it.
func useTree(n, dim int, metric Metric, blocks []Block, query Query) bool {
	width := 0
	if metric == MaxEuclidean2 && len(blocks) > 1 {
		width = blocks[0].Len
		for _, b := range blocks {
			if b.Len != width {
				width = -1 // mixed widths: no row measured them
			}
		}
	}
	for _, c := range crossovers {
		if c.query == query && c.metric == metric && c.width == width {
			if from, ok := c.from[dim]; ok {
				// Take the path measured at the size nearest to n in
				// log n: switch at the geometric midpoint between from
				// and the measured size below it.
				return from != never && n*n >= from*sizeBelow(from)
			}
		}
	}
	return dim <= treeDims
}

// sizeBelow returns the measured size below size, or 0 for the smallest.
func sizeBelow(size int) int {
	below := 0
	for _, s := range crossoverSizes {
		if s == size {
			break
		}
		below = s
	}
	return below
}

type treeNode struct {
	index       int32 // point row
	left, right int32 // node indices, -1 for none
	count       int32 // subtree size including self
	axis        int32
}

// Tree is a rebuildable exact-kNN index over the rows of a flat matrix:
// k-d tree nodes or a plain scan, as Rebuild chooses. The zero value is
// ready for Rebuild.
type Tree struct {
	metric  Metric
	dim     int
	blocks  []Block
	pts     []float64 // referenced, not copied; row j at [j*dim, (j+1)*dim)
	n       int
	built   bool // tree nodes present; otherwise queries scan
	pairs   bool // MaxEuclidean2 blocks all two wide
	kernels bool // scans run the AVX2 kernels (kernels_amd64.s)

	nodes     []treeNode
	boxes     []float64 // per node: dim lows then dim highs
	root      int32
	idx       []int32
	sorter    axisSorter
	ownBlocks [1]Block // storage for the implicit whole-row block
}

// Rebuild reconstructs the index over a new point set in place, reusing
// node, box and index storage of previous builds, and chooses tree
// nodes or a scan for the query kind the index will serve (see
// useTree). pts holds n rows of dim coordinates each and is referenced
// (not copied) for the lifetime of the queries, so it must stay
// unmodified until the next Rebuild. blocks partitions the row for
// MaxEuclidean2 (nil means one block spanning the row); it is ignored by
// Chebyshev. The blocks slice is referenced, not copied.
func (t *Tree) Rebuild(pts []float64, n, dim int, metric Metric, blocks []Block, query Query) {
	t.rebuild(pts, n, dim, metric, blocks, useTree(n, dim, metric, blocks, query), true)
}

// rebuild is Rebuild with the path given: tree asks for tree nodes,
// which an empty index or one holding a non-finite coordinate still
// does not get, and kernels lets the scans run the AVX2 kernels where
// the CPU has them. Tests call it to force each path.
func (t *Tree) rebuild(pts []float64, n, dim int, metric Metric, blocks []Block, tree, kernels bool) {
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
	t.pairs = metric == MaxEuclidean2
	for _, b := range t.blocks {
		t.pairs = t.pairs && b.Len == 2
	}
	t.kernels = kernels && hasAVX2
	t.nodes = t.nodes[:0]
	t.boxes = t.boxes[:0]
	t.root = -1
	t.built = tree && n > 0 && finite(pts[:n*dim])
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

// finite reports whether every value in xs is finite. Tree bounds need
// it: a NaN or infinite difference makes the brute block sum NaN, which
// the max over blocks ignores, while a box bound built from the block's
// other coordinates would still count them.
func finite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 {
			return false
		}
	}
	return true
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

// TreeBacked reports whether queries run on tree nodes (as opposed to
// the scan).
func (t *Tree) TreeBacked() bool { return t.built }

func (t *Tree) row(j int) []float64 { return t.pts[j*t.dim : (j+1)*t.dim] }

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
	t.boxes = append(t.boxes, t.row(int(idx[mid]))...)
	t.boxes = append(t.boxes, t.row(int(idx[mid]))...)
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
// splits keep pruning effective as the dimension grows. The choice only
// shapes the tree; result exactness never depends on it. Ties resolve
// to the lowest axis, keeping builds deterministic.
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

// sqSum is the one-block kernel: the brute reference's squared
// Euclidean block sum, accumulated in coordinate order. It is NaN when
// a coordinate difference is (a NaN, or two equal infinities).
func sqSum(q, p []float64) float64 {
	p = p[:len(q)]
	var s float64
	for i, x := range q {
		d := x - p[i]
		s += d * d
	}
	return s
}

// blockDist is the MaxEuclidean2 kernel: each block's full sqSum, maxed
// across blocks as the brute reference maxes them (a NaN block sum never
// raises the max). The bound is tested once per block, on the block's
// complete sum; as the max can only grow, a block over bound proves the
// point lies beyond it, and the kernel stops with ok = false. The value
// is then a lower bound only and must not be used.
func blockDist(q, p []float64, blocks []Block, bound float64) (d float64, ok bool) {
	var worst float64
	for _, b := range blocks {
		s := sqSum(q[b.Off:b.Off+b.Len], p[b.Off:b.Off+b.Len])
		if s > worst {
			if s > bound {
				return s, false
			}
			worst = s
		}
	}
	return worst, true
}

// chebDist is the Chebyshev kernel: the max over coordinates of |Δ|,
// where, as in the brute reference, a NaN never raises the max. It is
// never NaN, and its caller tests the bound once on the result.
func chebDist(q, p []float64) float64 {
	p = p[:len(q)]
	var worst float64
	for i, x := range q {
		if d := math.Abs(x - p[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// dist returns the metric distance between q and point row j through
// the metric's kernel; ok = false reports a distance over bound, whose
// value must not be used.
func (t *Tree) dist(q []float64, j int32, bound float64) (d float64, ok bool) {
	if t.metric == Chebyshev {
		d = chebDist(q, t.row(int(j)))
		return d, d <= bound
	}
	return blockDist(q, t.row(int(j)), t.blocks, bound)
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

// consider offers point j as a kNN candidate from the tree walk, which
// visits points in no particular order.
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
	if len(st.dst) == st.k && !nbLess(nb, st.dst[st.k-1]) {
		return
	}
	st.insert(nb)
}

// insert adds nb to dst, which holds the k best seen so far sorted
// ascending by (Dist, Index), dropping the k-th when full. The caller
// has checked that nb beats it.
func (st *knnState) insert(nb Neighbor) {
	if len(st.dst) == st.k {
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
	if t.built && finite(q) {
		t.searchKNN(t.root, &st)
	} else {
		t.scanKNN(&st)
	}
	return st.dst
}

// scanKNN answers a KNearest query by one pass over the rows. Rows
// arrive in index order, so a candidate that ties the current k-th
// neighbour loses the index tie-break and only a strictly nearer one
// enters; nextWithin skips the rows beyond that bound, and only the
// rare row it stops at has its distance evaluated in full.
func (t *Tree) scanKNN(st *knnState) {
	bound := math.Inf(1)
	for j := t.nextWithin(st.q, 0, bound); j < t.n; j = t.nextWithin(st.q, j+1, bound) {
		if int32(j) == st.exclude {
			continue
		}
		d, _ := t.dist(st.q, int32(j), bound)
		if len(st.dst) == st.k && d >= bound {
			continue
		}
		st.insert(Neighbor{Index: int32(j), Dist: d})
		if len(st.dst) == st.k {
			bound = st.dst[st.k-1].Dist
		}
	}
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
// its guaranteed zero self-distance is subtracted from the count rather
// than threaded through the traversal or the scan.
func (t *Tree) CountWithin(q []float64, r float64, inclusive bool, exclude int32) int {
	if !inclusive {
		// A distance is below r exactly when it is at most the largest
		// float below r, so both predicates become dist ≤ r.
		r = math.Nextafter(r, math.Inf(-1))
	}
	// Distances are never negative or NaN: such a radius holds nothing.
	if !(r >= 0) || t.n == 0 {
		return 0
	}
	var c int
	if t.built && finite(q) {
		c = t.countNode(t.root, q, r)
	} else {
		c = t.scanCount(q, r)
	}
	if exclude >= 0 {
		c--
	}
	return c
}

// scanCount counts the rows within distance r ≥ 0 of q (inclusive) by
// one pass over the rows. The one-block loops count without a branch; a
// NaN block sum is distance 0 to the brute reference, so it counts:
// !(s > r) holds for it as for every s ≤ r. The AVX2 kernels count the
// rows in fours, and the Go loops count the rows left over.
func (t *Tree) scanCount(q []float64, r float64) int {
	c := 0
	switch {
	case t.metric == Chebyshev || len(t.blocks) > 1:
		for j := t.nextWithin(q, 0, r); j < t.n; j = t.nextWithin(q, j+1, r) {
			c++
		}
	case t.dim == 2:
		// sqSum unrolled for the paper's 2-D observer variables.
		q0, q1 := q[0], q[1]
		pts := t.pts[:2*t.n]
		if t.kernels {
			c = count2AVX2(q0, q1, pts, r)
			pts = pts[len(pts)&^7:]
		}
		for j := 1; j < len(pts); j += 2 {
			d0, d1 := q0-pts[j-1], q1-pts[j]
			s := d0 * d0
			s += d1 * d1
			if !(s > r) {
				c++
			}
		}
	default:
		j := 0
		if t.kernels {
			j = t.n &^ 3
			c = countRowsAVX2(q[:t.dim], t.pts[:j*t.dim], r)
		}
		for ; j < t.n; j++ {
			if !(sqSum(q, t.row(j)) > r) {
				c++
			}
		}
	}
	return c
}

// nextWithin returns the first row j ≥ from whose distance to q is at
// most bound, or n if there is none: the scans' screening loop. It
// tests every block sum against bound, on which a NaN sum never fails,
// and leaves the max over blocks to dist.
func (t *Tree) nextWithin(q []float64, from int, bound float64) int {
	switch {
	case t.metric == Chebyshev:
		// Every coordinate is a block of its own.
		q = q[:t.dim]
	coords:
		for j := from; j < t.n; j++ {
			p := t.row(j)[:len(q)]
			for i, x := range q {
				if math.Abs(x-p[i]) > bound {
					continue coords
				}
			}
			return j
		}
	case len(t.blocks) == 1:
		for j := from; j < t.n; j++ {
			if !(sqSum(q, t.row(j)) > bound) {
				return j
			}
		}
	case t.pairs && t.kernels:
		return from + nextPairsAVX2(q[:t.dim], t.pts[from*t.dim:t.n*t.dim], bound)
	case t.pairs:
		// sqSum unrolled for rows of 2-D observer variables.
		q = q[:t.dim]
	pairs:
		for j := from; j < t.n; j++ {
			p := t.row(j)[:len(q)]
			for i := 1; i < len(q); i += 2 {
				d0, d1 := q[i-1]-p[i-1], q[i]-p[i]
				s := d0 * d0
				s += d1 * d1
				if s > bound {
					continue pairs
				}
			}
			return j
		}
	default:
	rows:
		for j := from; j < t.n; j++ {
			p := t.row(j)
			for _, b := range t.blocks {
				if sqSum(q[b.Off:b.Off+b.Len], p[b.Off:b.Off+b.Len]) > bound {
					continue rows
				}
			}
			return j
		}
	}
	return t.n
}

// countNode counts the points of node ni's subtree within distance
// r ≥ 0 of q (inclusive).
func (t *Tree) countNode(ni int32, q []float64, r float64) int {
	if ni < 0 {
		return 0
	}
	// Reject the subtree only when every point must fail the predicate.
	if t.minDistBox(ni, q) > r {
		return 0
	}
	nd := &t.nodes[ni]
	if t.maxDistBox(ni, q) <= r {
		return int(nd.count)
	}
	var c int
	if _, ok := t.dist(q, nd.index, r); ok {
		c = 1
	}
	return c + t.countNode(nd.left, q, r) + t.countNode(nd.right, q, r)
}
