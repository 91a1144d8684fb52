package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/spatial"
	"repro/internal/vec"
)

// forcesList is the grid path as it was before the column walk, kept as
// the reference the walk must reproduce bit for bit: each particle's
// neighbours of higher index listed by AppendNeighbors into nbr, then
// each pair added through separation in list order.
func forcesList(s *System, nbr *[]int32) {
	pos, force, types := s.pos, s.force, s.cfg.Types[:len(s.pos)]
	rc := s.cfg.Cutoff
	rc2 := rc * rc
	var law forces.Law
	for i, pi := range pos {
		*nbr = s.grid.AppendNeighbors((*nbr)[:0], i, i+1, rc)
		law.Resolve(s.cfg.Force, types[i])
		fi := force[i]
		for _, j := range *nbr {
			dz, x, ok := separation(pi, pos[j], rc2)
			if !ok {
				continue
			}
			contrib := dz.Scale(-law.At(types[j], x))
			fi = fi.Add(contrib)
			force[j] = force[j].Sub(contrib)
		}
		force[i] = fi
	}
}

// fig4Force is the Fig. 4 interaction: F¹ over three types with k = 1.
func fig4Force() forces.Scaling {
	return forces.MustF1(forces.ConstantMatrix(3, 1), forces.MustMatrix([][]float64{
		{2.5, 5.0, 4.0},
		{5.0, 2.5, 2.0},
		{4.0, 2.0, 3.5},
	}))
}

// inFourClusters places the particles on four discs of radius 3 at the
// corners of a 40-wide square, cycling by index.
func inFourClusters(i int, rng rngx.Source) vec.Vec2 {
	x, y := rng.UniformDisc(3)
	return vec.Vec2{X: x + float64(i%2)*40, Y: y + float64(i/2%2)*40}
}

// withNaN places like at, except that particle 5 sits at NaN.
func withNaN(at func(int, rngx.Source) vec.Vec2) func(int, rngx.Source) vec.Vec2 {
	return func(i int, rng rngx.Source) vec.Vec2 {
		p := at(i, rng)
		if i == 5 {
			p.X = math.NaN()
		}
		return p
	}
}

// straddling places the particles like inTwoClusters, but shifts the far
// cluster up by whole cells until its window columns cross the wrapped
// table's last row, so Window splits them into two runs each. It reports
// false if no shift did.
func straddling(t *testing.T, cfg Config, seed uint64) (*System, bool) {
	t.Helper()
	for shift := 0; shift < 200; shift++ {
		at := func(i int, rng rngx.Source) vec.Vec2 {
			p := inTwoClusters(i, rng)
			if i%2 == 1 {
				p.Y += float64(shift) * cfg.Cutoff
			}
			return p
		}
		sys := placedSystem(t, cfg, seed, at)
		if sys.gridReady() && maxRuns(sys) > 3 {
			return sys, true
		}
	}
	return nil, false
}

// maxRuns returns the most runs any particle's window has.
func maxRuns(s *System) int {
	var buf [6][]int32
	most := 0
	for i := range s.pos {
		most = max(most, len(s.grid.Window(i, &buf)))
	}
	return most
}

// sameForces reports the first particle whose forces differ in a bit.
func sameForces(a, b []vec.Vec2) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return i, false
		}
	}
	return 0, true
}

// The column walk must add exactly the forces the neighbour-list walk
// added, in its order: bit-identical force vectors on random, clustered,
// wrapped and NaN-bearing collectives at N = 32, 50, 128 and 256, over
// several steps of their dynamics, and on a wrapped collective whose
// windows split into two runs per column.
func TestGridWalkMatchesNeighbourList(t *testing.T) {
	places := []struct {
		name string
		at   func(int, rngx.Source) vec.Vec2
	}{
		{"random", onDisc(20)},
		{"clustered", inFourClusters},
		{"wrapped", inTwoClusters},
		{"nan", withNaN(onDisc(20))},
		{"wrapped-nan", withNaN(inTwoClusters)},
	}
	check := func(t *testing.T, sys *System, steps int) {
		t.Helper()
		var nbr []int32
		for step := 0; step < steps; step++ {
			if !sys.gridReady() {
				t.Fatalf("step %d: test setup: expected the grid", step)
			}
			clear(sys.force)
			sys.forcesGrid()
			walk := append([]vec.Vec2(nil), sys.force...)
			clear(sys.force)
			forcesList(sys, &nbr)
			if i, ok := sameForces(walk, sys.force); !ok {
				t.Fatalf("step %d particle %d: column walk %v, neighbour list %v", step, i, walk[i], sys.force[i])
			}
			sys.Step()
		}
	}
	for _, n := range []int{32, 50, 128, 256} {
		for _, pl := range places {
			t.Run(fmt.Sprintf("%s/n=%d", pl.name, n), func(t *testing.T) {
				check(t, placedSystem(t, Config{N: n, Force: fig4Force(), Cutoff: 5}, uint64(40+n), pl.at), 5)
			})
		}
		t.Run(fmt.Sprintf("split/n=%d", n), func(t *testing.T) {
			sys, ok := straddling(t, Config{N: n, Force: fig4Force(), Cutoff: 5}, uint64(60+n))
			if !ok {
				t.Fatal("test setup: no shift split a window column")
			}
			check(t, sys, 1) // the clusters drift off the wrap after a step
		})
	}
}

// BenchmarkGridForces times one grid rebuild and force pass of Fig. 4's
// interaction (rc = 5) over N particles on a disc of the given radius,
// on the column walk and on the neighbour-list walk it replaced, and one
// force pass of the O(n²) sweep over the same positions, the search
// gridReady's rule would otherwise pick.
func BenchmarkGridForces(b *testing.B) {
	for _, n := range []int{40, 64, 128, 256} {
		for _, radius := range []float64{8, 12, 20, 30} {
			cfg := Config{N: n, Force: fig4Force(), Cutoff: 5}.WithDefaults()
			rng := rngx.New(uint64(n))
			pos := make([]vec.Vec2, n)
			for i := range pos {
				x, y := rng.UniformDisc(radius)
				pos[i] = vec.Vec2{X: x, Y: y}
			}
			sys, err := NewFromPositions(cfg, pos, rngx.New(1))
			if err != nil {
				b.Fatal(err)
			}
			// Built directly: a small disc may be too narrow for
			// gridReady to pick the grid.
			sys.grid = spatial.NewDenseGrid(cfg.Cutoff)
			var nbr []int32
			for _, walk := range []struct {
				name string
				pass func()
			}{
				{"column", func() { sys.grid.Rebuild(sys.pos); sys.forcesGrid() }},
				{"list", func() { sys.grid.Rebuild(sys.pos); forcesList(sys, &nbr) }},
				{"sweep", sys.forcesBrute},
			} {
				b.Run(fmt.Sprintf("n=%d/disc=%g/%s", n, radius, walk.name), func(b *testing.B) {
					for b.Loop() {
						clear(sys.force)
						walk.pass()
					}
				})
			}
		}
	}
}
