package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteDist evaluates the metric with the reference floating-point
// expression: sequential per-block sums in coordinate order, maxed across
// blocks (or max |Δ| for Chebyshev).
func bruteDist(pts []float64, dim int, metric Metric, blocks []Block, a, b int) float64 {
	pa := pts[a*dim : (a+1)*dim]
	pb := pts[b*dim : (b+1)*dim]
	if metric == Chebyshev {
		var worst float64
		for i := range pa {
			if d := math.Abs(pa[i] - pb[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	if blocks == nil {
		blocks = []Block{{0, dim}}
	}
	var worst float64
	for _, bl := range blocks {
		var s float64
		for i := bl.Off; i < bl.Off+bl.Len; i++ {
			diff := pa[i] - pb[i]
			s += diff * diff
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

func bruteKNearest(pts []float64, n, dim int, metric Metric, blocks []Block, q, k int) []Neighbor {
	var all []Neighbor
	for j := 0; j < n; j++ {
		if j == q {
			continue
		}
		all = append(all, Neighbor{Index: int32(j), Dist: bruteDist(pts, dim, metric, blocks, q, j)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func bruteCount(pts []float64, n, dim int, metric Metric, blocks []Block, q int, r float64, inclusive bool) int {
	c := 0
	for j := 0; j < n; j++ {
		if j == q {
			continue
		}
		d := bruteDist(pts, dim, metric, blocks, q, j)
		if d < r || (inclusive && d == r) {
			c++
		}
	}
	return c
}

// randomInstance draws a point set with deliberate duplicates and
// coordinate collisions so the (distance, index) tie-breaking paths are
// exercised, plus a random block structure. One trial in four also
// plants NaN and ±Inf coordinates, whose brute distances follow the
// reference's rule that a NaN block sum never raises the max.
func randomInstance(r *rand.Rand) (pts []float64, n, dim int, blocks []Block) {
	dim = 1 + r.Intn(6)
	n = 5 + r.Intn(60)
	pts = make([]float64, n*dim)
	for i := range pts {
		// A coarse grid makes exact distance ties common.
		pts[i] = float64(r.Intn(8))
		if r.Intn(4) == 0 {
			pts[i] += r.Float64()
		}
	}
	// Duplicate a few full rows.
	for d := 0; d < n/8; d++ {
		src, dst := r.Intn(n), r.Intn(n)
		copy(pts[dst*dim:(dst+1)*dim], pts[src*dim:(src+1)*dim])
	}
	if r.Intn(4) == 0 {
		nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for c := 1 + r.Intn(3); c > 0; c-- {
			pts[r.Intn(len(pts))] = nonFinite[r.Intn(len(nonFinite))]
		}
	}
	off := 0
	for off < dim {
		l := 1 + r.Intn(dim-off)
		blocks = append(blocks, Block{off, l})
		off += l
	}
	return pts, n, dim, blocks
}

// mode is one way an index answers queries: on tree nodes, or by a
// scan through the Go loops or the AVX2 kernels. A tree index scans
// only a query or rows holding a non-finite coordinate, through the
// kernels where the CPU has them, as Rebuild's indexes do.
type mode struct{ tree, kernels bool }

// forEachMode runs f on the tree, the Go scan and the AVX2 scan in
// turn; f builds its indexes with rebuild(..., m.tree, m.kernels). The
// AVX2 scan is skipped on a host without AVX2, where the scan has only
// its Go loops.
func forEachMode(t *testing.T, f func(t *testing.T, m mode)) {
	t.Helper()
	for _, c := range []struct {
		name string
		m    mode
	}{{"tree", mode{true, true}}, {"scan", mode{false, false}}, {"avx2", mode{false, true}}} {
		t.Run(c.name, func(t *testing.T) {
			if c.m.kernels && !c.m.tree && !hasAVX2 {
				t.Skip("this host has no AVX2: the scan runs only its Go loops")
			}
			f(t, c.m)
		})
	}
}

func TestKNearestMatchesBruteExactly(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	forEachMode(t, func(t *testing.T, m mode) {
		var tr Tree
		for trial := 0; trial < 200; trial++ {
			pts, n, dim, blocks := randomInstance(r)
			for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
				bl := blocks
				if metric == Chebyshev {
					bl = nil
				}
				tr.rebuild(pts, n, dim, metric, bl, m.tree, m.kernels)
				if want := m.tree && finite(pts); tr.TreeBacked() != want {
					t.Fatalf("TreeBacked = %v, want %v", tr.TreeBacked(), want)
				}
				k := 1 + r.Intn(n)
				var scratch []Neighbor
				for q := 0; q < n; q++ {
					got := tr.KNearest(rowOf(pts, dim, q), k, int32(q), scratch)
					want := bruteKNearest(pts, n, dim, metric, bl, q, k)
					if len(got) != len(want) {
						t.Fatalf("metric %v k=%d q=%d: %d neighbours, want %d", metric, k, q, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("metric %v k=%d q=%d neighbour %d: got {%d %v}, want {%d %v}",
								metric, k, q, i, got[i].Index, got[i].Dist, want[i].Index, want[i].Dist)
						}
					}
					scratch = got
				}
			}
		}
	})
}

func TestCountWithinMatchesBruteExactly(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	forEachMode(t, func(t *testing.T, m mode) {
		var tr Tree
		for trial := 0; trial < 200; trial++ {
			pts, n, dim, blocks := randomInstance(r)
			for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
				bl := blocks
				if metric == Chebyshev {
					bl = nil
				}
				tr.rebuild(pts, n, dim, metric, bl, m.tree, m.kernels)
				for q := 0; q < n; q++ {
					// Radii that exactly hit point distances probe the
					// strict/inclusive boundary; add a few generic ones.
					radii := []float64{0, r.Float64() * 10, math.Inf(1), math.NaN()}
					j := r.Intn(n)
					radii = append(radii, bruteDist(pts, dim, metric, bl, q, j))
					for _, rad := range radii {
						for _, inclusive := range []bool{false, true} {
							got := tr.CountWithin(rowOf(pts, dim, q), rad, inclusive, int32(q))
							want := bruteCount(pts, n, dim, metric, bl, q, rad, inclusive)
							if got != want {
								t.Fatalf("metric %v q=%d r=%v inclusive=%v: count %d, want %d",
									metric, q, rad, inclusive, got, want)
							}
						}
					}
				}
			}
		}
	})
}

func rowOf(pts []float64, dim, j int) []float64 { return pts[j*dim : (j+1)*dim] }

// Rebuilding over new data must behave exactly like a fresh index on
// either path.
func TestRebuildReuseMatchesFreshTree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	forEachMode(t, func(t *testing.T, m mode) {
		var reused Tree
		for trial := 0; trial < 60; trial++ {
			pts, n, dim, blocks := randomInstance(r)
			reused.rebuild(pts, n, dim, MaxEuclidean2, blocks, m.tree, m.kernels)
			var fresh Tree
			fresh.rebuild(pts, n, dim, MaxEuclidean2, blocks, m.tree, m.kernels)
			k := 1 + r.Intn(4)
			for q := 0; q < n; q++ {
				a := reused.KNearest(rowOf(pts, dim, q), k, int32(q), nil)
				b := fresh.KNearest(rowOf(pts, dim, q), k, int32(q), nil)
				if len(a) != len(b) {
					t.Fatalf("trial %d q=%d: reused %d results, fresh %d", trial, q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("trial %d q=%d: reused tree diverged from fresh tree", trial, q)
					}
				}
			}
		}
	})
}

// In steady state (same-shaped inputs) rebuilding and both queries
// allocate nothing on either path, for every index shape the estimators
// build: one block, 2-wide and 1-wide blocks, and Chebyshev. This is the
// allocation-free proof for KNearest and CountWithin.
func TestSteadyStateRebuildAndQueryAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, dim, k = 256, 4, 4
	shapes := []struct {
		metric Metric
		blocks []Block
	}{
		{MaxEuclidean2, nil},
		{MaxEuclidean2, []Block{{0, 2}, {2, 2}}},
		{MaxEuclidean2, []Block{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
		{Chebyshev, nil},
	}
	pts := make([]float64, n*dim)
	fill := func() {
		for i := range pts {
			pts[i] = r.NormFloat64()
		}
	}
	forEachMode(t, func(t *testing.T, m mode) {
		trees := make([]Tree, len(shapes))
		scratch := make([]Neighbor, 0, k)
		rebuildAll := func() {
			for i, sh := range shapes {
				trees[i].rebuild(pts, n, dim, sh.metric, sh.blocks, m.tree, m.kernels)
			}
		}
		fill()
		rebuildAll() // warm-up build
		allocs := testing.AllocsPerRun(10, func() {
			fill()
			rebuildAll()
			for i := range trees {
				tr := &trees[i]
				for q := 0; q < n; q++ {
					scratch = tr.KNearest(rowOf(pts, dim, q), k, int32(q), scratch)
					d := scratch[k-1].Dist
					if tr.CountWithin(rowOf(pts, dim, q), d, false, int32(q)) > k-1 ||
						tr.CountWithin(rowOf(pts, dim, q), d, true, int32(q)) < k {
						t.Fatal("impossible count")
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state rebuild+query allocates %v allocs/op, want 0", allocs)
		}
	})
}

func TestReleaseDropsReferencesKeepsStorage(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	pts := make([]float64, 40*3)
	for i := range pts {
		pts[i] = r.NormFloat64()
	}
	const n, dim = 40, 3
	blocks := []Block{{0, 1}, {1, 2}}
	forEachMode(t, func(t *testing.T, m mode) {
		var tr Tree
		tr.rebuild(pts, n, dim, MaxEuclidean2, blocks, m.tree, m.kernels)
		retained := tr.RetainedBytes()
		if m.tree != (retained > 0) {
			t.Fatalf("tree=%v index reports %d retained bytes", m.tree, retained)
		}
		tr.Release()
		if tr.Len() != 0 || tr.TreeBacked() || tr.pts != nil || tr.blocks != nil {
			t.Fatal("Release left the index non-empty or holding caller data")
		}
		if got := tr.RetainedBytes(); got != retained {
			t.Fatalf("Release changed retained storage: %d → %d", retained, got)
		}
		// A released index must still be rebuildable without fresh
		// allocation for same-shaped input.
		allocs := testing.AllocsPerRun(5, func() {
			tr.rebuild(pts, n, dim, MaxEuclidean2, blocks, m.tree, m.kernels)
		})
		if allocs != 0 {
			t.Errorf("rebuild after Release allocates %v, want 0", allocs)
		}
	})
}

func TestKNearestEdgeCases(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		var tr Tree
		pts := []float64{0, 1, 2, 3}
		tr.rebuild(pts, 4, 1, MaxEuclidean2, nil, m.tree, m.kernels)
		if got := tr.KNearest([]float64{1.1}, 0, -1, nil); len(got) != 0 {
			t.Errorf("k=0 returned %d neighbours", len(got))
		}
		// k larger than the point count returns everything (minus exclusions).
		got := tr.KNearest([]float64{1.1}, 10, 1, nil)
		if len(got) != 3 {
			t.Errorf("k>n returned %d neighbours, want 3", len(got))
		}
		for _, nb := range got {
			if nb.Index == 1 {
				t.Errorf("excluded index returned")
			}
		}
		// All-duplicate points: ties must resolve by index.
		dup := []float64{5, 5, 5, 5}
		tr.rebuild(dup, 4, 1, MaxEuclidean2, nil, m.tree, m.kernels)
		got = tr.KNearest([]float64{5}, 2, 2, nil)
		if len(got) != 2 || got[0].Index != 0 || got[1].Index != 1 {
			t.Errorf("duplicate tie-break: got %v, want indices 0,1", got)
		}
	})
}

// A query that is not an indexed row may hold NaN or ±Inf coordinates
// even when every indexed row is finite; both paths still match brute
// force. The query is appended as row n, which the brute sweeps (over
// rows < n) treat as an outside point.
func TestNonFiniteQueryMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	forEachMode(t, func(t *testing.T, m mode) {
		var tr Tree
		for trial := 0; trial < 100; trial++ {
			pts, n, dim, blocks := randomInstance(r)
			for !finite(pts) {
				pts, n, dim, blocks = randomInstance(r)
			}
			q := append([]float64(nil), rowOf(pts, dim, r.Intn(n))...)
			q[r.Intn(dim)] = specials[r.Intn(len(specials))]
			ext := append(append([]float64(nil), pts...), q...)
			for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
				bl := blocks
				if metric == Chebyshev {
					bl = nil
				}
				tr.rebuild(pts, n, dim, metric, bl, m.tree, m.kernels)
				if tr.TreeBacked() != m.tree {
					t.Fatalf("TreeBacked = %v on finite rows, want %v", tr.TreeBacked(), m.tree)
				}
				k := 1 + r.Intn(n)
				got := tr.KNearest(q, k, -1, nil)
				want := bruteKNearest(ext, n, dim, metric, bl, n, k)
				if len(got) != len(want) {
					t.Fatalf("metric %v q=%v: %d neighbours, want %d", metric, q, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("metric %v q=%v neighbour %d: got %v, want %v", metric, q, i, got[i], want[i])
					}
				}
				rad := bruteDist(ext, dim, metric, bl, n, r.Intn(n))
				for _, inclusive := range []bool{false, true} {
					if got, want := tr.CountWithin(q, rad, inclusive, -1), bruteCount(ext, n, dim, metric, bl, n, rad, inclusive); got != want {
						t.Fatalf("metric %v q=%v r=%v inclusive=%v: count %d, want %d", metric, q, rad, inclusive, got, want)
					}
				}
			}
		}
	})
}

// Rebuild scans an index holding a non-finite coordinate even where
// useTree picks the tree, and the scan it falls back to, on the Go
// loops or on the kernels, matches brute force.
func TestRebuildScansNonFiniteRows(t *testing.T) {
	const n, dim = 128, 2
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = float64(i)
	}
	var tr Tree
	tr.Rebuild(pts, n, dim, MaxEuclidean2, nil, Nearest)
	if !tr.TreeBacked() {
		t.Fatal("precondition: a 2-D kNN index of 128 points should be tree-backed")
	}
	pts[15] = math.NaN()
	tr.Rebuild(pts, n, dim, MaxEuclidean2, nil, Nearest)
	if tr.TreeBacked() {
		t.Error("tree built over a NaN coordinate")
	}
	forEachMode(t, func(t *testing.T, m mode) {
		var tr Tree
		tr.rebuild(pts, n, dim, MaxEuclidean2, nil, m.tree, m.kernels)
		if tr.TreeBacked() {
			t.Fatal("tree built over a NaN coordinate")
		}
		if want := m.kernels && hasAVX2; tr.kernels != want {
			t.Fatalf("scan runs the kernels = %v, want %v", tr.kernels, want)
		}
		for q := 0; q < n; q++ {
			got := tr.KNearest(rowOf(pts, dim, q), 4, int32(q), nil)
			want := bruteKNearest(pts, n, dim, MaxEuclidean2, nil, q, 4)
			if len(got) != len(want) {
				t.Fatalf("q=%d: %d neighbours, want %d", q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("q=%d neighbour %d: got %v, want %v", q, i, got[i], want[i])
				}
			}
			rad := bruteDist(pts, dim, MaxEuclidean2, nil, q, (q+5)%n)
			for _, inclusive := range []bool{false, true} {
				if got, want := tr.CountWithin(rowOf(pts, dim, q), rad, inclusive, int32(q)), bruteCount(pts, n, dim, MaxEuclidean2, nil, q, rad, inclusive); got != want {
					t.Fatalf("q=%d r=%v inclusive=%v: count %d, want %d", q, rad, inclusive, got, want)
				}
			}
		}
	})
}
