package spatial

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/vec"
)

// refNeighbors is the visit order every grid query must follow: the
// brute-force neighbours of point i ordered by their cell's window offset
// (dx, then dy) from i's cell, then by ascending index. The simulator's
// force sums run in this order, so its bits depend on it.
func refNeighbors(pts []vec.Vec2, i int, radius, cell float64) []int {
	out := BruteNeighbors(pts, i, radius)
	cellOf := func(j int) (int64, int64) {
		return int64(math.Floor(pts[j].X / cell)), int64(math.Floor(pts[j].Y / cell))
	}
	sort.SliceStable(out, func(a, b int) bool {
		ax, ay := cellOf(out[a])
		bx, by := cellOf(out[b])
		if ax != bx {
			return ax < bx
		}
		return ay < by
	})
	return out
}

// Property: on random point sets, radii and cell sizes the grid returns
// exactly the brute-force neighbours, in the reference visit order.
func TestDenseGridMatchesGridAndBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.IntN(120)
		pts := randomPoints(r, n, 30)
		radius := 0.5 + r.Float64()*8
		cell := 0.3 + r.Float64()*6
		g := NewDenseGridFrom(pts, cell)
		for i := 0; i < n; i++ {
			if got, want := g.Neighbors(i, radius), refNeighbors(pts, i, radius, cell); !equalInts(got, want) {
				t.Fatalf("trial %d point %d: grid %v, reference %v (r=%v cell=%v)",
					trial, i, got, want, radius, cell)
			}
		}
	}
}

// wrappingPoints scatters n points over clusters whose centres sit on a
// lattice of pitch 16·cell spanning up to 2^14 cells, so the bounding box
// far exceeds 64·n + 4096 cells, and cells land in the same wrapped bucket
// as their aliases. Duplicates, cell-boundary points and one-dimensional
// layouts (wrapping along one axis only) are mixed in.
func wrappingPoints(r *rand.Rand, n int, cell float64) []vec.Vec2 {
	pitch := 16 * cell
	lattice := func() float64 { return float64(r.IntN(1<<10)) * pitch }
	flat := r.IntN(3) // 0: both axes spread, 1: x only, 2: y only
	centres := make([]vec.Vec2, 1+r.IntN(6))
	for c := range centres {
		centres[c] = vec.Vec2{X: lattice(), Y: lattice()}
		switch flat {
		case 1:
			centres[c].Y = 0
		case 2:
			centres[c].X = 0
		}
	}
	// Two far corners guarantee the spread whatever the clusters drew.
	centres = append(centres, vec.Vec2{}, vec.Vec2{X: 1 << 10 * pitch, Y: 1 << 10 * pitch})
	if flat == 1 {
		centres[len(centres)-1].Y = 0
	} else if flat == 2 {
		centres[len(centres)-1].X = 0
	}
	pts := make([]vec.Vec2, n)
	for i := range pts {
		c := centres[r.IntN(len(centres))]
		switch r.IntN(8) {
		case 0: // on a cell boundary
			pts[i] = vec.Vec2{X: c.X + float64(r.IntN(5)-2)*cell, Y: c.Y + float64(r.IntN(5)-2)*cell}
		case 1: // coincident with an earlier point
			if i > 0 {
				pts[i] = pts[r.IntN(i)]
				continue
			}
			fallthrough
		default:
			pts[i] = vec.Vec2{X: c.X + (r.Float64()-0.5)*8*cell, Y: c.Y + (r.Float64()-0.5)*8*cell}
		}
	}
	return pts
}

// Property: on point sets that wrap, each query still returns exactly the
// brute-force neighbours in the reference visit order — for windows
// narrow enough to meet each bucket once and for windows so wide they
// must match each candidate's own cell. One recycled grid serves every
// trial, so rebuilds also switch between wrapped and unwrapped tables.
func TestDenseGridWrappedVisitOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	g := NewDenseGrid(1)
	wide := 0
	for trial := 0; trial < 200; trial++ {
		cell := 0.3 + r.Float64()*6
		n := 5 + r.IntN(120)
		spanCells := 0.5 + r.Float64()*8
		if trial%4 == 2 { // windows of 81 to 281 cells per side
			n = 5 + r.IntN(10)
			spanCells = 40 + r.Float64()*100
		}
		radius := spanCells * cell
		pts := wrappingPoints(r, n, cell)
		if trial%2 == 1 { // alternate with a compact set on the same grid
			pts = randomPoints(r, n, 20*cell)
		}
		g.cellSize = cell // in place, so every trial recycles g's arrays
		g.Rebuild(pts)
		if trial%2 == 0 && g.wrap == 0 {
			t.Fatalf("trial %d: %d-point set spanning %dx%d cells did not wrap", trial, n, g.nx, g.ny)
		}
		if g.wrap > 0 && 2*int64(math.Ceil(spanCells))+1 >= g.wrap {
			wide++
		}
		for i := 0; i < n; i++ {
			if got, want := g.Neighbors(i, radius), refNeighbors(pts, i, radius, cell); !equalInts(got, want) {
				t.Fatalf("trial %d point %d: grid %v, reference %v (r=%v cell=%v wrap=%d)",
					trial, i, got, want, radius, cell, g.wrap)
			}
		}
	}
	if wide == 0 {
		t.Fatal("no trial exercised a window as wide as a wrapped side")
	}
}

// Property: a recycled grid answers exactly like a freshly built one across
// growing, shrinking, identical and disjoint point sets.
func TestDenseGridRebuildReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 24))
	g := NewDenseGrid(1.5)
	sizes := []int{80, 200, 200, 12, 1, 0, 150, 3}
	for round, n := range sizes {
		extent := 5 + r.Float64()*60 // varying spread exercises regrowth
		pts := randomPoints(r, n, extent)
		g.Rebuild(pts)
		if g.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, g.Len(), n)
		}
		fresh := NewDenseGridFrom(pts, 1.5)
		radius := 0.5 + r.Float64()*5
		for i := 0; i < n; i++ {
			got := g.Neighbors(i, radius)
			if !equalInts(got, fresh.Neighbors(i, radius)) {
				t.Fatalf("round %d point %d: recycled grid diverged from fresh grid", round, i)
			}
			if !equalInts(sorted(got), sorted(BruteNeighbors(pts, i, radius))) {
				t.Fatalf("round %d point %d: recycled grid diverged from brute force", round, i)
			}
		}
	}
}

// Rebuilding over the identical point set twice must not change any answer
// (the counting sort is stable and the scratch arrays are fully overwritten).
func TestDenseGridRebuildIdempotent(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 26))
	pts := randomPoints(r, 90, 25)
	g := NewDenseGridFrom(pts, 2)
	before := make([][]int, len(pts))
	for i := range pts {
		before[i] = g.Neighbors(i, 4)
	}
	g.Rebuild(pts)
	for i := range pts {
		if !equalInts(before[i], g.Neighbors(i, 4)) {
			t.Fatalf("point %d: answers changed after identical rebuild", i)
		}
	}
}

// AppendNeighbors must visit neighbours in the order the callback query
// ForNeighbors defined — now the reference order, as ForNeighbors was
// folded into AppendNeighbors — and append after what dst already holds,
// in dst's own array while its capacity lasts. Neighbors and CountWithin
// must agree with it, on compact and wrapped grids alike.
func TestAppendNeighborsMatchesForNeighbors(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 28))
	const radius = 3.0
	for set, pts := range [][]vec.Vec2{randomPoints(r, 100, 20), wrappingPoints(r, 100, radius)} {
		g := NewDenseGridFrom(pts, radius)
		if (g.wrap > 0) != (set == 1) {
			t.Fatalf("set %d: wrap = %d", set, g.wrap)
		}
		buf := make([]int32, 0, len(pts)+1)
		for i := range pts {
			want := refNeighbors(pts, i, radius, radius)
			buf = append(buf[:0], -1) // a prefix the query must keep
			got := g.AppendNeighbors(buf, i, radius)
			if &got[0] != &buf[0] {
				t.Fatalf("point %d: append reallocated a buffer with room to spare", i)
			}
			if got[0] != -1 || len(got) != 1+len(want) {
				t.Fatalf("point %d: append gave %v after the prefix, want %v", i, got, want)
			}
			for k, j := range want {
				if int(got[1+k]) != j {
					t.Fatalf("point %d: append order %v, reference order %v", i, got[1:], want)
				}
			}
			if !equalInts(g.Neighbors(i, radius), want) || g.CountWithin(i, radius) != len(want) {
				t.Fatalf("point %d: Neighbors/CountWithin disagree with AppendNeighbors", i)
			}
		}
	}
}

func TestDenseGridSteadyStateRebuildAllocationFree(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 30))
	pts := randomPoints(r, 256, 40)
	g := NewDenseGridFrom(pts, 2)
	buf := make([]int32, 0, 64)
	allocs := testing.AllocsPerRun(20, func() {
		// Jitter in place: same bounding box scale, new cell membership.
		for i := range pts {
			pts[i].X += (r.Float64() - 0.5)
			pts[i].Y += (r.Float64() - 0.5)
		}
		g.Rebuild(pts)
		for i := range pts {
			buf = g.AppendNeighbors(buf[:0], i, 2)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Rebuild+query allocated %.1f times per run, want 0", allocs)
	}
}

func TestDenseGridEdgeCases(t *testing.T) {
	g := NewDenseGrid(1)
	g.Rebuild(nil)
	if g.Len() != 0 || g.Cells() != 0 {
		t.Fatalf("empty rebuild: Len=%d Cells=%d", g.Len(), g.Cells())
	}
	g.Rebuild([]vec.Vec2{{X: 3, Y: -7}})
	if got := g.Neighbors(0, 5); len(got) != 0 {
		t.Fatalf("single point has no neighbours, got %v", got)
	}
	if g.Cells() != 1 {
		t.Fatalf("single point should occupy one cell, got %d", g.Cells())
	}
	// Points exactly on cell boundaries (negative and positive).
	pts := []vec.Vec2{{X: 0, Y: 0}, {X: -1, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: -1}, {X: 0, Y: 1}}
	g.Rebuild(pts)
	if got := sorted(g.Neighbors(0, 1)); !equalInts(got, []int{1, 2, 3, 4}) {
		t.Fatalf("boundary-inclusive query: %v", got)
	}
	// A NaN point belongs to no cell: it neither has nor is a neighbour.
	pts = []vec.Vec2{{X: 0, Y: 0}, {X: math.NaN(), Y: 0}, {X: 0.5, Y: 0}}
	if !g.Rebuild(pts) {
		t.Fatal("rebuild with a NaN point refused")
	}
	if got := g.Neighbors(0, 1); !equalInts(got, []int{2}) {
		t.Fatalf("NaN point counted as a neighbour: %v", got)
	}
	if got := g.Neighbors(1, 1); len(got) != 0 {
		t.Fatalf("NaN point has neighbours: %v", got)
	}
	// A bounding box with cells the grid cannot index is refused.
	for _, far := range []float64{1e300, math.Inf(1), math.Inf(-1), 0x1p62} {
		if g.Rebuild([]vec.Vec2{{X: 0, Y: 0}, {X: far, Y: 1}}) {
			t.Fatalf("rebuild over a point at %g accepted", far)
		}
	}
	if !g.Rebuild([]vec.Vec2{{X: -1e18, Y: 0}, {X: 1e18, Y: 1}}) || g.wrap == 0 {
		t.Fatal("rebuild over a 2e18-wide set should wrap")
	}
}

func TestDenseGridRejectsBadCellSize(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cell size %v should panic", bad)
				}
			}()
			NewDenseGrid(bad)
		}()
	}
}
