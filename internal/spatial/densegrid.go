// Package spatial provides the simulator's neighbour search: a uniform
// cell-list grid answering the fixed-radius queries of the N_rc(i)
// neighbourhoods of Eq. 6.
//
// DenseGrid is exact — it returns the same neighbours as brute force —
// and visits them in one deterministic order whatever the spread of the
// points, which the property tests verify on random and wrapping inputs.
package spatial

import (
	"math"

	"repro/internal/vec"
)

// Bucket-table sizing. A bounding box of at most maxCellsPerPoint·n +
// maxCellsFloor cells gets one bucket per cell; a sparser point set wraps
// its cells into a table of at most that many buckets. √maxCellsFloor =
// 64, so a wrapped side is never shorter than 64.
const (
	maxCellsPerPoint = 64
	maxCellsFloor    = 4096
)

// maxCellCoord bounds the cell coordinates a grid can index: below it in
// magnitude, the cell extent of any bounding box fits in an int64.
const maxCellCoord = 1 << 62

// DenseGrid is a flat-array uniform cell list built by counting sort
// (CSR layout: idx holds point indices grouped by bucket, start[b] ..
// start[b+1] delimits bucket b). Rebuild recycles all backing arrays, so
// in steady state rebuilding over a new frame performs zero heap
// allocations — the simulator's per-step hot path.
//
// Cell (x, y) holds the points with floor(p/cellSize) = (x, y), counted
// from the bounding box's lowest cell. While the box needs at most
// 64·n + 4096 cells, each cell is its own bucket. A sparser set wraps:
// cell (x, y) shares bucket (x mod wx, y mod wy) with its aliases, in a
// table of at most that many buckets whose wrapped sides are at least 64
// long. A query window narrower than a wrapped side then meets each
// bucket once, and every alias lies over a cell beyond the radius, so it
// fails the exact distance test; a wider window checks each candidate's
// own cell instead. Either way a query visits neighbours cell by cell in
// window order — offset dx, then dy, ascending — and by ascending index
// within a cell, the order the simulator's bit-reproducibility rests on.
type DenseGrid struct {
	cellSize float64
	points   []vec.Vec2 // aliased from the last Rebuild; not owned

	// Cell-space bounding box of the last Rebuild: nx×ny cells from
	// (minCX, minCY).
	minCX, minCY int64
	nx, ny       int64
	// Bucket table: wx×wy buckets, the box itself unless it wraps; wrap
	// is the shortest wrapped side, 0 when nothing wraps.
	wx, wy, wrap int64

	start  []int32 // CSR bucket offsets, len wx·wy+1 while there are points
	idx    []int32 // point indices grouped by bucket
	cellOf []int32 // scratch: bucket per point, -1 if unplaceable
}

// NewDenseGrid returns an empty dense grid with the given cell size; call
// Rebuild to populate it. A cell size equal to the query radius gives the
// classic 3×3-cell neighbourhood scan. cellSize must be positive and finite.
func NewDenseGrid(cellSize float64) *DenseGrid {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic("spatial: cell size must be positive and finite")
	}
	return &DenseGrid{cellSize: cellSize}
}

// NewDenseGridFrom builds a dense grid over points, equivalent to
// NewDenseGrid followed by Rebuild.
func NewDenseGridFrom(points []vec.Vec2, cellSize float64) *DenseGrid {
	g := NewDenseGrid(cellSize)
	g.Rebuild(points)
	return g
}

// Len returns the number of points indexed by the last Rebuild.
func (g *DenseGrid) Len() int { return len(g.points) }

// Cells returns the number of buckets allocated by the last Rebuild.
func (g *DenseGrid) Cells() int { return int(g.wx * g.wy) }

// grow returns buf resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, n+n/2)
	}
	return buf[:n]
}

// Rebuild re-indexes the grid over a new point set, recycling all backing
// arrays. The slice is aliased, not copied: the caller must not move points
// between Rebuild and subsequent queries. Growing, shrinking and identical
// point sets are all fine — the property tests check that a recycled grid
// answers exactly like a freshly built one. It reports false as
// RebuildBounded does.
func (g *DenseGrid) Rebuild(points []vec.Vec2) bool {
	min, max := vec.BoundingBox(points)
	return g.RebuildBounded(points, min, max)
}

// RebuildBounded is Rebuild with a precomputed bounding box of the points,
// saving the extra O(n) scan when the caller already has one (the
// simulator's strategy choice computes it every step anyway). min and max
// must satisfy min.X ≤ p.X ≤ max.X, min.Y ≤ p.Y ≤ max.Y for every point;
// NaN points belong to no cell and have no neighbours.
//
// It reports false, leaving the grid empty, when a corner of the box has
// a non-finite cell coordinate or one of magnitude 2^62 or more — only a
// diverged point set gets there, and its caller must search by brute
// force.
func (g *DenseGrid) RebuildBounded(points []vec.Vec2, min, max vec.Vec2) bool {
	g.points = points
	n := len(points)
	g.idx = grow(g.idx, n)
	g.cellOf = grow(g.cellOf, n)
	g.nx, g.ny, g.wx, g.wy, g.wrap = 0, 0, 0, 0, 0
	if n == 0 {
		return true
	}
	lox, loy := math.Floor(min.X/g.cellSize), math.Floor(min.Y/g.cellSize)
	hix, hiy := math.Floor(max.X/g.cellSize), math.Floor(max.Y/g.cellSize)
	if !(indexable(lox) && indexable(loy) && indexable(hix) && indexable(hiy)) {
		g.points = nil
		return false
	}
	g.minCX, g.minCY = int64(lox), int64(loy)
	g.nx, g.ny = int64(hix)-g.minCX+1, int64(hiy)-g.minCY+1
	g.sizeBuckets(int64(maxCellsPerPoint*n + maxCellsFloor))
	nb := int(g.wx * g.wy)

	g.start = grow(g.start, nb+1)
	for b := range g.start {
		g.start[b] = 0
	}
	// Counting sort, pass 1: histogram bucket occupancy.
	for i, p := range points {
		x, y := g.cell(p)
		if uint64(x) >= uint64(g.nx) || uint64(y) >= uint64(g.ny) {
			g.cellOf[i] = -1 // NaN: outside every cell
			continue
		}
		b := int32(g.bucket(x, y))
		g.cellOf[i] = b
		g.start[b+1]++
	}
	for b := 0; b < nb; b++ {
		g.start[b+1] += g.start[b]
	}
	// Pass 2: scatter in ascending point order, so indices stay ascending
	// within each bucket (the determinism contract). The cursor trick
	// advances start[b] to end-of-bucket; the shift below restores the
	// CSR offsets.
	for i := 0; i < n; i++ {
		if b := g.cellOf[i]; b >= 0 {
			g.idx[g.start[b]] = int32(i)
			g.start[b]++
		}
	}
	for b := nb; b > 0; b-- {
		g.start[b] = g.start[b-1]
	}
	g.start[0] = 0
	return true
}

// sizeBuckets picks the bucket table for the nx×ny cell box: the box
// itself when it has at most maxBuckets cells, otherwise a wrapped table
// of at most maxBuckets buckets whose wrapped sides are all at least
// √maxBuckets long.
func (g *DenseGrid) sizeBuckets(maxBuckets int64) {
	g.wx, g.wy = g.nx, g.ny
	if g.nx <= maxBuckets/g.ny {
		return
	}
	side := int64(math.Sqrt(float64(maxBuckets)))
	switch {
	case g.nx <= side:
		g.wy = maxBuckets / g.nx
	case g.ny <= side:
		g.wx = maxBuckets / g.ny
	default:
		g.wx, g.wy = side, side
	}
	g.wrap = math.MaxInt64
	if g.wx < g.nx {
		g.wrap = g.wx
	}
	if g.wy < g.ny {
		g.wrap = min(g.wrap, g.wy)
	}
}

// indexable reports whether a cell coordinate is finite and below
// maxCellCoord in magnitude.
func indexable(c float64) bool { return math.Abs(c) < maxCellCoord }

// cell returns p's cell, counted from the bounding box's lowest cell.
func (g *DenseGrid) cell(p vec.Vec2) (x, y int64) {
	return int64(math.Floor(p.X/g.cellSize)) - g.minCX, int64(math.Floor(p.Y/g.cellSize)) - g.minCY
}

// inCell reports whether q lies in cell (x, y).
func (g *DenseGrid) inCell(q vec.Vec2, x, y int64) bool {
	qx, qy := g.cell(q)
	return qx == x && qy == y
}

// bucket returns the bucket of cell (x, y), which must lie in the box.
// Unwrapped grids skip the modulo, which would cost every rebuild.
func (g *DenseGrid) bucket(x, y int64) int64 {
	if g.wrap == 0 {
		return y*g.wx + x
	}
	return (y%g.wy)*g.wx + x%g.wx
}

// AppendNeighbors appends to dst the indices of all points j ≠ i, j ≥ from,
// with ‖p_j − p_i‖ ≤ radius, in the grid's deterministic visit order, and
// returns the extended slice. Smaller indices are skipped before their
// distance test, so from = i + 1 lists each unordered pair once, from its
// lower index, and from = 0 lists every neighbour. Passing a recycled
// dst[:0] makes the query allocation-free once the buffer has grown to
// the steady-state neighbour count — this is the simulator's hot-path
// entry point.
func (g *DenseGrid) AppendNeighbors(dst []int32, i, from int, radius float64) []int32 {
	p := g.points[i]
	r2 := radius * radius
	span := int64(math.Ceil(radius / g.cellSize))
	cx, cy := g.cell(p)
	// A window as wide as a wrapped side may meet a bucket twice or pass
	// an alias through the distance test: match each candidate's cell.
	checkCell := g.wrap > 0 && 2*span+1 >= g.wrap
	for dx := -span; dx <= span; dx++ {
		x := cx + dx
		if x < 0 || x >= g.nx {
			continue
		}
		for dy := -span; dy <= span; dy++ {
			y := cy + dy
			if y < 0 || y >= g.ny {
				continue
			}
			b := g.bucket(x, y)
			for _, j := range g.idx[g.start[b]:g.start[b+1]] {
				if int(j) < from || int(j) == i {
					continue
				}
				q := g.points[j]
				if q.Dist2(p) <= r2 && (!checkCell || g.inCell(q, x, y)) {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// Neighbors returns the indices of all points within radius of point i,
// excluding i itself, in the grid's deterministic visit order.
func (g *DenseGrid) Neighbors(i int, radius float64) []int {
	var out []int
	for _, j := range g.AppendNeighbors(nil, i, 0, radius) {
		out = append(out, int(j))
	}
	return out
}

// CountWithin returns the number of points j ≠ i within radius of point i.
func (g *DenseGrid) CountWithin(i int, radius float64) int {
	return len(g.AppendNeighbors(nil, i, 0, radius))
}

// BruteNeighbors is the reference implementation of a fixed-radius query:
// it scans all points in index order. Tests use it as ground truth, and
// the neighbour-strategy ablation benchmark as the O(n²) baseline.
func BruteNeighbors(points []vec.Vec2, i int, radius float64) []int {
	r2 := radius * radius
	inf := math.IsInf(radius, 1)
	var out []int
	for j, q := range points {
		if j == i {
			continue
		}
		if inf || points[i].Dist2(q) <= r2 {
			out = append(out, j)
		}
	}
	return out
}
