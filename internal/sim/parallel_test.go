package sim

import (
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/vec"
)

func shardedConfig(n, workers int, cutoff float64) Config {
	return Config{
		N:       n,
		Force:   forces.MustF1(forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 2)),
		Cutoff:  cutoff,
		Workers: workers,
	}
}

// runTrajectory advances a fresh system from a fixed seed and returns the
// positions after each step.
func runTrajectory(t *testing.T, cfg Config, seed uint64, steps int) [][]vec.Vec2 {
	t.Helper()
	sys, err := New(cfg, rngx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]vec.Vec2, 0, steps)
	for k := 0; k < steps; k++ {
		sys.Step()
		out = append(out, sys.Positions())
	}
	return out
}

// Sharded accumulation must be bit-identical for every worker count: the
// serial sharded run (Workers=1) and any parallel run see exactly the same
// per-particle accumulation order.
func TestShardedTrajectoriesBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, cutoff := range []float64{2.5, math.Inf(1)} {
		serial := runTrajectory(t, shardedConfig(70, 1, cutoff), 99, 120)
		for _, workers := range []int{2, 3, 8} {
			parallel := runTrajectory(t, shardedConfig(70, workers, cutoff), 99, 120)
			for step := range serial {
				for i := range serial[step] {
					if serial[step][i] != parallel[step][i] {
						t.Fatalf("cutoff=%v workers=%d step %d particle %d: serial %v, parallel %v",
							cutoff, workers, step, i, serial[step][i], parallel[step][i])
					}
				}
			}
		}
	}
}

// The sharded mode evaluates each pair twice instead of exploiting Newton's
// third law, so it matches the legacy pair sweep only up to rounding; the
// physics must agree to high precision on every path combination.
func TestShardedMatchesLegacyForces(t *testing.T) {
	rng := rngx.New(11)
	for _, tc := range []struct {
		name   string
		spread float64
		cutoff float64
	}{
		{"brute", 4, math.Inf(1)},
		{"grid", 30, 2},
	} {
		cfg := shardedConfig(64, 0, tc.cutoff).WithDefaults()
		pos := make([]vec.Vec2, cfg.N)
		for i := range pos {
			x, y := rng.UniformDisc(tc.spread)
			pos[i] = vec.Vec2{X: x, Y: y}
		}
		legacy, err := NewFromPositions(cfg, pos, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		legacy.computeForces()

		cfg.Workers = 4
		sharded, err := NewFromPositions(cfg, pos, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		sharded.computeForces()

		for i := range legacy.force {
			if d := legacy.force[i].Dist(sharded.force[i]); d > 1e-9 {
				t.Fatalf("%s particle %d: legacy %v, sharded %v (Δ=%v)",
					tc.name, i, legacy.force[i], sharded.force[i], d)
			}
		}
	}
}

// Newton's third law must hold bit-exactly in sharded mode so the centroid
// stays a motion invariant of the noise-free dynamics (cf.
// TestCentroidConservedWithoutNoise for the legacy path).
func TestShardedCentroidConservedWithoutNoise(t *testing.T) {
	cfg := Config{
		N:             12,
		Force:         forces.MustF1(forces.ConstantMatrix(3, 1.5), forces.RandomMatrix(3, 1, 4, rngx.New(5))),
		Cutoff:        8,
		NoiseVariance: -1,
		Workers:       3,
	}
	sys, err := New(cfg, rngx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	before := vec.Centroid(sys.Positions())
	sys.Run(200)
	after := vec.Centroid(sys.Positions())
	if before.Dist(after) > 1e-9 {
		t.Fatalf("centroid drifted by %v", before.Dist(after))
	}
}

// newSpreadSystem builds a system whose configuration keeps the grid
// strategy selected (spread ≫ 3·rc, n ≥ 32).
func newSpreadSystem(t *testing.T, workers int) *System {
	t.Helper()
	cfg := shardedConfig(128, workers, 2).WithDefaults()
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
func newClusteredSystem(t *testing.T, workers int) *System {
	t.Helper()
	cfg := shardedConfig(80, workers, 2).WithDefaults()
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

// Steady-state Step on the grid path must not allocate: the grid and all
// scratch buffers are recycled, whether the collective is compact or
// spread so far that the grid wraps. Covers both the legacy serial sweep
// and the inline sharded mode.
func TestStepSteadyStateAllocationFree(t *testing.T) {
	for name, build := range map[string]func(*testing.T, int) *System{
		"spread":    newSpreadSystem,
		"clustered": newClusteredSystem,
	} {
		for _, workers := range []int{0, 1} {
			sys := build(t, workers)
			sys.Run(3) // warm up grid and scratch buffers
			allocs := testing.AllocsPerRun(30, sys.Step)
			if allocs != 0 {
				t.Fatalf("%s, Workers=%d: steady-state Step allocated %.1f times per run, want 0",
					name, workers, allocs)
			}
		}
	}
}

// A diverged particle — far out, at infinity or NaN — must never make a
// step panic: a box too wide for one bucket per cell wraps, and one whose
// cells cannot be indexed falls back to the O(n²) sweep.
func TestStepSurvivesExtremeCoordinates(t *testing.T) {
	for _, far := range []float64{1e18, -1e18, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, at := range []int{0, 127} {
			for _, workers := range []int{0, 1} {
				sys := newSpreadSystem(t, workers)
				sys.pos[at] = vec.Vec2{X: far, Y: -far}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("particle %d at %g, Workers=%d: Step panicked: %v", at, far, workers, r)
						}
					}()
					sys.Run(3)
				}()
			}
		}
	}
}

// Ensemble runs must be bit-identical whether the per-step force work is
// serial or fanned out, and whatever the sample-level worker count — the
// two parallelism levels compose without breaking reproducibility.
func TestEnsembleDeterministicAcrossWorkerLevels(t *testing.T) {
	base := EnsembleConfig{
		Sim:         shardedConfig(24, 1, 5),
		M:           6,
		Steps:       40,
		RecordEvery: 10,
		Seed:        2012,
	}
	ref, err := RunEnsemble(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ simWorkers, ensWorkers int }{{1, 1}, {4, 1}, {1, 4}, {2, 3}} {
		ec := base
		ec.Sim.Workers = tc.simWorkers
		ec.Workers = tc.ensWorkers
		got, err := RunEnsemble(ec)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ref.Trajs {
			for f := range ref.Trajs[s].Frames {
				for i := range ref.Trajs[s].Frames[f] {
					if ref.Trajs[s].Frames[f][i] != got.Trajs[s].Frames[f][i] {
						t.Fatalf("Sim.Workers=%d Workers=%d: sample %d frame %d particle %d diverged",
							tc.simWorkers, tc.ensWorkers, s, f, i)
					}
				}
			}
		}
	}
}

func TestValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := shardedConfig(8, -1, 5).WithDefaults()
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Workers should fail validation")
	}
}
