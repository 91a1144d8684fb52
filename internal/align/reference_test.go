package align

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/vec"
)

// refNearest is the correspondence search before the bounded one, kept as
// its reference: a scan of the query's type for the smallest squared
// distance, ties to the smaller index.
func refNearest(ref []vec.Vec2, same []int, q vec.Vec2) (int, float64) {
	best, bestD2 := same[0], ref[same[0]].Dist2(q)
	for _, j := range same[1:] {
		if d2 := ref[j].Dist2(q); d2 < bestD2 {
			best, bestD2 = j, d2
		}
	}
	return best, bestD2
}

// refMatch is the greedy matching before the lazy one, kept as its
// reference: per type, all pairs sorted by (d², i, j), each taken when
// both of its particles are still free. It returns perm, perm[j] = i.
func refMatch(moving, reference []vec.Vec2, types []int) []int {
	type pair struct {
		d2   float64
		i, j int
	}
	perm := make([]int, len(moving))
	byType := map[int][]int{}
	for i, t := range types {
		byType[t] = append(byType[t], i)
	}
	for _, idx := range byType {
		var pairs []pair
		for _, i := range idx {
			for _, j := range idx {
				pairs = append(pairs, pair{moving[i].Dist2(reference[j]), i, j})
			}
		}
		sort.Slice(pairs, func(a, b int) bool {
			pa, pb := pairs[a], pairs[b]
			if pa.d2 != pb.d2 {
				return pa.d2 < pb.d2
			}
			if pa.i != pb.i {
				return pa.i < pb.i
			}
			return pa.j < pb.j
		})
		usedI, usedJ := map[int]bool{}, map[int]bool{}
		for _, p := range pairs {
			if usedI[p.i] || usedJ[p.j] {
				continue
			}
			usedI[p.i], usedJ[p.j] = true, true
			perm[p.j] = p.i
		}
	}
	return perm
}

// checkAgainstReference runs ICP's loop on a.load's scratch with the
// reference scan, and checks that every correspondence query a.nearest
// answers (with bounds on type runs at least boundFrom long) returns the
// scan's index and squared distance, and that the final matching is the
// sorted greedy's. Then it checks that a.icp itself, on the same input,
// reproduces the reference run's angle, iteration count and permutation.
// It returns the number of queries the bound answered without a scan.
func checkAgainstReference(t *testing.T, a *Aligner, c alignCase, boundFrom int) (skipped int) {
	t.Helper()
	if err := a.load(c.moving, c.reference, c.types, boundFrom); err != nil {
		t.Fatal(err)
	}
	opt := Options{}.withDefaults()
	mov, ref, n := a.mov, a.ref, len(c.moving)
	rotated, matched := make([]vec.Vec2, n), make([]vec.Vec2, n)
	queries := 0
	query := func(i int, q vec.Vec2, theta float64) float64 {
		queries++
		bounded := len(a.sameType[i]) >= a.boundFrom
		var before bound
		if bounded {
			before = a.bounds[i]
		}
		j, d2 := a.nearest(i, q, theta)
		if bounded && before.j >= 0 && a.bounds[i] == before {
			skipped++
		}
		wj, wd2 := refNearest(ref, a.sameType[i], q)
		if j != wj || math.Float64bits(d2) != math.Float64bits(wd2) {
			t.Fatalf("%s: query %d, particle %d at θ = %v: nearest %d (d² %v), scan %d (d² %v)",
				c.name, queries, i, theta, j, d2, wj, wd2)
		}
		matched[i] = ref[wj]
		return wd2
	}
	bestTheta, bestCost, iters := 0.0, math.Inf(1), 0
	for restart := 0; restart < opt.Restarts; restart++ {
		theta := 2 * math.Pi * float64(restart) / float64(opt.Restarts)
		prevRMS := math.Inf(1)
		for iter := 0; iter < opt.MaxIterations; iter++ {
			iters++
			rot := vec.Rotation(theta)
			var sumD2 float64
			for i, p := range mov {
				rotated[i] = rot.Apply(p)
				sumD2 += query(i, rotated[i], theta)
			}
			rms := math.Sqrt(sumD2 / float64(n))
			theta += Procrustes2D(rotated, matched).Theta
			if prevRMS-rms < opt.Tolerance {
				break
			}
			prevRMS = rms
		}
		var cost float64
		rot := vec.Rotation(theta)
		for i, p := range mov {
			cost += query(i, rot.Apply(p), theta)
		}
		if cost < bestCost {
			bestCost, bestTheta = cost, theta
		}
	}
	aligned := make([]vec.Vec2, n)
	rot := vec.Rotation(bestTheta)
	for i, p := range mov {
		aligned[i] = rot.Apply(p)
	}
	wantPerm := refMatch(aligned, ref, c.types)
	a.matchByType(aligned, ref)
	if !slices.Equal(a.perm, wantPerm) {
		t.Fatalf("%s: lazy greedy %v, sorted greedy %v", c.name, a.perm, wantPerm)
	}

	theta, gotIters, err := a.icp(c.moving, c.reference, c.types, Options{}, boundFrom)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(theta) != math.Float64bits(bestTheta) || gotIters != iters || !slices.Equal(a.perm, wantPerm) {
		t.Fatalf("%s: icp θ %v, %d iterations, perm %v; reference θ %v, %d iterations, perm %v",
			c.name, theta, gotIters, a.perm, bestTheta, iters, wantPerm)
	}
	return skipped
}

// constructedCases are frames built to meet the bounded search's and the
// lazy matching's edge cases: exact distance ties on lattices and regular
// polygons, near-ties one unit in the last place apart (also scaled to
// 1e-300, 2^398 and 2^401), single-member types, coordinates near 1e8
// with unit-scale structure, and signed zeros.
func constructedCases(r *rand.Rand) []alignCase {
	var cases []alignCase
	add := func(name string, moving, reference []vec.Vec2, types []int) {
		cases = append(cases, alignCase{name: name, moving: moving, reference: reference, types: types})
	}
	randomTypes := func(n, l int) []int {
		types := make([]int, n)
		for i := range types {
			types[i] = r.IntN(l)
		}
		return types
	}
	for k := 0; k < 8; k++ {
		// Small integer lattice: ties everywhere, repeats coincide.
		n, side := 10+r.IntN(30), 2+r.IntN(4)
		on := func() vec.Vec2 { return vec.Vec2{X: float64(r.IntN(side)), Y: float64(r.IntN(side))} }
		mov, ref := make([]vec.Vec2, n), make([]vec.Vec2, n)
		for i := range mov {
			mov[i], ref[i] = on(), on()
		}
		add(fmt.Sprintf("lattice/%d", k), mov, ref, randomTypes(n, 1+r.IntN(2)))

		// A regular polygon against itself rotated: every restart angle
		// ties with a symmetric one.
		m := 8 + 4*r.IntN(4)
		poly, turned := make([]vec.Vec2, m), make([]vec.Vec2, m)
		for i := range poly {
			a := 2 * math.Pi * float64(i) / float64(m)
			poly[i] = vec.Vec2{X: 5 * math.Cos(a), Y: 5 * math.Sin(a)}
			turned[i] = poly[i].Rotate(r.Float64() * 2 * math.Pi)
		}
		add(fmt.Sprintf("polygon/%d", k), turned, poly, make([]int, m))

		// Near-ties: lattice points nudged by one ulp either way.
		nudged := make([]vec.Vec2, n)
		for i, p := range ref {
			nudged[i] = vec.Vec2{X: nudge(r, p.X+3), Y: nudge(r, p.Y-2)}
		}
		add(fmt.Sprintf("near-tie/%d", k), mov, nudged, randomTypes(n, 1))

		// Single-member types among longer runs.
		cloud := randomCloud(r, n, 12)
		moved := Rigid{Theta: r.Float64() * 2 * math.Pi}.ApplyAll(cloud)
		types := randomTypes(n, 2)
		for i := 0; i < n; i += 4 {
			types[i] = 10 + i
		}
		add(fmt.Sprintf("singletons/%d", k), moved, cloud, types)

		// Coordinates near 1e8: unit-scale clusters 1e8 apart.
		far, farMoved := make([]vec.Vec2, n), make([]vec.Vec2, n)
		for i := range far {
			c := vec.Vec2{X: 1e8 * float64(i%3-1), Y: 1e8 * float64(i%2)}
			far[i] = c.Add(vec.Vec2{X: r.Float64() * 4, Y: r.Float64() * 4})
			farMoved[i] = far[i].Rotate(1e-9 * r.Float64()).Add(vec.Vec2{X: r.NormFloat64() * 0.1, Y: r.NormFloat64() * 0.1})
		}
		add(fmt.Sprintf("far/%d", k), farMoved, far, randomTypes(n, 2))

		// The near-ties scaled to the margin's underflow floor and to
		// either side of the bounded search's 2^400 cut.
		for _, sc := range []struct {
			name  string
			scale float64
		}{{"tiny", 1e-300}, {"2^398", 0x1p398}, {"2^401", 0x1p401}} {
			smov, sref := make([]vec.Vec2, n), make([]vec.Vec2, n)
			for i := range smov {
				smov[i], sref[i] = mov[i].Scale(sc.scale), nudged[i].Scale(sc.scale)
			}
			add(fmt.Sprintf("scaled-%s/%d", sc.name, k), smov, sref, randomTypes(n, 1))
		}

		// Signed zeros: a lattice over ±0 and ±1 whose centroid is zero.
		signed := []float64{math.Copysign(0, -1), 0, 1, -1}
		zmov, zref := make([]vec.Vec2, 16), make([]vec.Vec2, 16)
		for i := range zref {
			zref[i] = vec.Vec2{X: signed[i%4], Y: signed[i/4]}
			zmov[i] = vec.Vec2{X: signed[r.IntN(4)], Y: signed[r.IntN(4)]}
		}
		add(fmt.Sprintf("signed-zero/%d", k), zmov, zref, randomTypes(16, 2))
	}
	return cases
}

// nudge moves x one unit in the last place up, down or not at all.
func nudge(r *rand.Rand, x float64) float64 {
	switch r.IntN(3) {
	case 0:
		return math.Nextafter(x, math.Inf(1))
	case 1:
		return math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// The bounded search and the lazy greedy matching must answer exactly as
// the scan and the sorted greedy they replaced: every correspondence
// query (index and squared distance) and every final permutation, on the
// golden frames and on the constructed edge cases, with bounds on every
// type run, on none, and on the runs boundedRunMin selects. One Aligner
// serves every case, so its scratch is recycled across shapes.
func TestICPMatchesReference(t *testing.T) {
	cases := append(goldenCases(t), constructedCases(rand.New(rand.NewPCG(41, 42)))...)
	var a Aligner
	for _, boundFrom := range []int{1, boundedRunMin, math.MaxInt} {
		skipped := map[string]int{}
		for _, c := range cases {
			kind, _, _ := strings.Cut(c.name, "/")
			skipped[kind] += checkAgainstReference(t, &a, c, boundFrom)
		}
		// Unless bounds are off, the bound must have spared scans on
		// the simulated, the far and the scaled frames below 2^400, or
		// this test shows nothing; above it, every query scans.
		for _, kind := range []string{"fig4", "fig8-l1", "far", "scaled-tiny", "scaled-2^398"} {
			if (boundFrom == math.MaxInt) != (skipped[kind] == 0) {
				t.Errorf("bounds from runs of %d: %d queries of the %s frames answered without a scan", boundFrom, skipped[kind], kind)
			}
		}
		if n := skipped["scaled-2^401"]; n != 0 {
			t.Errorf("bounds from runs of %d: %d queries of frames beyond 2^400 answered without a scan", boundFrom, n)
		}
		t.Logf("bounds from runs of %d: queries answered without a scan %v", boundFrom, skipped)
	}
}

// The lazy greedy must take the sorted greedy's pairs on any input: many
// exact ties, coincident points, infinite coordinates (a type with one
// keeps the sort, as a NaN distance needs it) and NaN.
func TestMatchByTypeMatchesSortedGreedy(t *testing.T) {
	r := rand.New(rand.NewPCG(43, 44))
	var a Aligner
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.IntN(40)
		side := 1 + r.IntN(5)
		types := make([]int, n)
		nTypes := 1 + r.IntN(4)
		mov, ref := make([]vec.Vec2, n), make([]vec.Vec2, n)
		for i := range mov {
			types[i] = r.IntN(nTypes)
			mov[i] = vec.Vec2{X: float64(r.IntN(side)), Y: float64(r.IntN(side))}
			ref[i] = vec.Vec2{X: float64(r.IntN(side)), Y: float64(r.IntN(side))}
		}
		if trial%3 == 0 {
			pts := [][]vec.Vec2{mov, ref}[r.IntN(2)]
			pts[r.IntN(n)].X = specials[r.IntN(len(specials))]
		}
		a.groupByType(types)
		a.matchByType(mov, ref)
		if want := refMatch(mov, ref, types); !slices.Equal(a.perm, want) {
			t.Fatalf("trial %d: lazy greedy %v, sorted greedy %v (types %v)", trial, a.perm, want, types)
		}
	}
}
