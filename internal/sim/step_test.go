package sim

import (
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/vec"
)

// gridConfig is a three-type F1 collective with a cut-off small enough
// for the grid strategy once the particles are spread out.
func gridConfig(n int) Config {
	return Config{
		N:      n,
		Force:  forces.MustF1(forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 2)),
		Cutoff: 2,
	}.WithDefaults()
}

// newSpreadSystem builds a system whose configuration keeps the grid
// strategy selected (spread ≫ 3·rc, n ≥ 32).
func newSpreadSystem(t *testing.T) *System {
	t.Helper()
	cfg := gridConfig(128)
	rng := rngx.New(8)
	pos := make([]vec.Vec2, cfg.N)
	for i := range pos {
		x, y := rng.UniformDisc(40)
		pos[i] = vec.Vec2{X: x, Y: y}
	}
	sys, err := NewFromPositions(cfg, pos, rngx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !sys.gridReady() {
		t.Fatal("test setup: expected the grid strategy")
	}
	return sys
}

// newClusteredSystem builds two far-apart clusters: their bounding box
// spans ~5000×5000 cells, far more than the grid gives one bucket each,
// so the grid wraps its cells into a bounded bucket table.
func newClusteredSystem(t *testing.T) *System {
	t.Helper()
	cfg := gridConfig(80)
	rng := rngx.New(10)
	pos := make([]vec.Vec2, cfg.N)
	for i := range pos {
		x, y := rng.UniformDisc(8)
		off := float64(i%2) * 1e4
		pos[i] = vec.Vec2{X: x + off, Y: y + off}
	}
	sys, err := NewFromPositions(cfg, pos, rngx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !sys.gridReady() || sys.grid.Cells() >= 5000*5000 {
		t.Fatal("test setup: expected the wrapped grid")
	}
	return sys
}

// newSweepSystem builds a system that takes the O(n²) pair sweep: n
// below the grid's 32-particle floor, or an infinite cut-off. Dt is the
// stable step for every particle coupled to every other.
func newSweepSystem(t *testing.T, n int, cutoff float64) *System {
	t.Helper()
	cfg := gridConfig(n)
	cfg.Cutoff = cutoff
	cfg.Dt = MaxStableDt(1, n-1)
	rng := rngx.New(12)
	pos := make([]vec.Vec2, n)
	for i := range pos {
		x, y := rng.UniformDisc(4)
		pos[i] = vec.Vec2{X: x, Y: y}
	}
	sys, err := NewFromPositions(cfg, pos, rngx.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if sys.gridReady() {
		t.Fatal("test setup: expected the O(n²) sweep")
	}
	return sys
}

// withForce returns sys's configuration and positions run under f.
func withForce(t *testing.T, sys *System, f forces.Scaling) *System {
	t.Helper()
	cfg := sys.Config()
	cfg.Force = f
	out, err := NewFromPositions(cfg, sys.PositionsRef(), rngx.New(14))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Steady-state Step must not allocate on either neighbour search: on the
// grid path the grid is recycled and the column walk keeps its window
// runs on the stack, whether the collective is compact or spread so far
// that the grid wraps (Fig. 4's shape both ways, the wrapped one with
// windows split across the table's last row); the O(n²) sweep (Fig. 8's
// and Fig. 11's N = 20, under F¹ and F², or rc = ∞) uses no scratch, and
// neither does a custom Scaling's Eval fallback.
func TestStepSteadyStateAllocationFree(t *testing.T) {
	fig4 := Config{N: 50, Force: fig4Force(), Cutoff: 5}
	for name, build := range map[string]func(*testing.T) *System{
		"spread":    newSpreadSystem,
		"clustered": newClusteredSystem,
		"fig4-column": func(t *testing.T) *System {
			sys := placedSystem(t, fig4, 50, onDisc(12))
			if !sys.gridReady() {
				t.Fatal("test setup: expected the grid")
			}
			return sys
		},
		"fig4-wrapped-column": func(t *testing.T) *System {
			sys, ok := straddling(t, fig4, 51)
			if !ok || sys.grid.Cells() >= 1000*1000 {
				t.Fatal("test setup: expected a wrapped grid with split windows")
			}
			return sys
		},
		"sweep-n20": func(t *testing.T) *System { return newSweepSystem(t, 20, 2) },
		"sweep-n20-f2": func(t *testing.T) *System {
			f := forces.RandomF2(3, 1, 10, 1, 10, rngx.New(15))
			return withForce(t, newSweepSystem(t, 20, 7.5), f)
		},
		"sweep-inf": func(t *testing.T) *System { return newSweepSystem(t, 64, math.Inf(1)) },
		"custom-scaling": func(t *testing.T) *System {
			return withForce(t, newSweepSystem(t, 20, 2), springScaling{l: 3})
		},
	} {
		sys := build(t)
		sys.Run(3) // warm up grid and scratch buffers
		if allocs := testing.AllocsPerRun(30, sys.Step); allocs != 0 {
			t.Fatalf("%s: steady-state Step allocated %.1f times per run, want 0", name, allocs)
		}
	}
}

// A diverged particle — far out, at infinity or NaN — must never make a
// step panic: a box too wide for one bucket per cell wraps, and one whose
// cells cannot be indexed falls back to the O(n²) sweep.
func TestStepSurvivesExtremeCoordinates(t *testing.T) {
	for _, far := range []float64{1e18, -1e18, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, at := range []int{0, 127} {
			sys := newSpreadSystem(t)
			sys.pos[at] = vec.Vec2{X: far, Y: -far}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("particle %d at %g: Step panicked: %v", at, far, r)
					}
				}()
				sys.Run(3)
			}()
		}
	}
}
