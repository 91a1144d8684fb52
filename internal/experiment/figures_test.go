package experiment

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/vec"
)

// The snapshot-figure drivers run full simulations; keep them out of
// -short runs but verify their outputs structurally in normal runs.

func TestFig1ExampleDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg, err := Fig1Example(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Pos) != 40 || len(cfg.Types) != 40 {
		t.Fatalf("fig1 shape: %d positions, %d types", len(cfg.Pos), len(cfg.Types))
	}
	// The morphology claim: per-type mean radius (from collective
	// centroid) must be ordered by type — type 0 innermost, type 3
	// outermost — reflecting the nested adhesion matrix.
	pos := append([]vec.Vec2(nil), cfg.Pos...)
	vec.Center(pos)
	radius := make([]float64, 4)
	count := make([]int, 4)
	for i, p := range pos {
		radius[cfg.Types[i]] += p.Norm()
		count[cfg.Types[i]]++
	}
	for ty := range radius {
		radius[ty] /= float64(count[ty])
	}
	if !(radius[0] < radius[3]) {
		t.Errorf("type 0 mean radius %v should be inside type 3 mean radius %v (radii: %v)",
			radius[0], radius[3], radius)
	}
}

func TestFig3EquilibriaDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfgs, err := Fig3Equilibria(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("%d configurations, want 3 (l=3,2,1)", len(cfgs))
	}
	// The single-type F2 panel: a repulsion-only collective must spread
	// into an even configuration — nearest-neighbour distances should
	// have a low coefficient of variation (regular-grid signature).
	grid := cfgs[2]
	var nnDists []float64
	for i, p := range grid.Pos {
		best := math.Inf(1)
		for j, q := range grid.Pos {
			if i == j {
				continue
			}
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		nnDists = append(nnDists, best)
	}
	mean, varSum := 0.0, 0.0
	for _, d := range nnDists {
		mean += d
	}
	mean /= float64(len(nnDists))
	for _, d := range nnDists {
		varSum += (d - mean) * (d - mean)
	}
	cv := math.Sqrt(varSum/float64(len(nnDists))) / mean
	if cv > 0.45 {
		t.Errorf("single-type F2 equilibrium not grid-like: NN-distance CV = %v", cv)
	}
}

func TestFig12EmergentStructuresDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfgs, err := Fig12EmergentStructures(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("%d structures, want 2", len(cfgs))
	}
	// Ball-in-ring: the type-0 core must sit strictly inside the type-1
	// shell (mean radius ordering with clear separation).
	ball := cfgs[0]
	pos := append([]vec.Vec2(nil), ball.Pos...)
	vec.Center(pos)
	var rCore, rShell float64
	var nCore, nShell int
	for i, p := range pos {
		if ball.Types[i] == 0 {
			rCore += p.Norm()
			nCore++
		} else {
			rShell += p.Norm()
			nShell++
		}
	}
	rCore /= float64(nCore)
	rShell /= float64(nShell)
	if !(rShell > 1.5*rCore) {
		t.Errorf("ball-in-ring: shell mean radius %v not clearly outside core %v", rShell, rCore)
	}
}

func TestFig8SweepAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	fd, err := Fig8TypeCountSweep(context.Background(), nil, TestScale(), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 1 || len(fd.Series[0].X) != 3 {
		t.Fatalf("fig8 series shape wrong: %+v", fd.Series)
	}
	for _, y := range fd.Series[0].Y {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatal("non-finite ΔI")
		}
	}
}

func TestFig11DecompositionAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	fd, err := Fig11Decomposition(context.Background(), TestScale(), 11)
	if err != nil {
		t.Fatal(err)
	}
	// total + between + 5 types.
	if len(fd.Series) != 7 {
		t.Fatalf("fig11 has %d series, want 7", len(fd.Series))
	}
	// Normalized fractions: between + within must sum to 1 wherever the
	// total is nonzero.
	nPts := len(fd.Series[0].X)
	for i := 0; i < nPts; i++ {
		sum := 0.0
		for _, s := range fd.Series[1:] { // skip the scaled total
			sum += s.Y[i]
		}
		if math.Abs(sum-1) > 1e-6 && sum != 0 {
			t.Fatalf("decomposition fractions at point %d sum to %v", i, sum)
		}
	}
}

// TestFig6AndFig11StopWhenCancelled: the Fig. 6 pipeline and the Fig. 11
// driver run under the caller's context, so a cancelled one returns the
// context's error instead of a figure.
func TestFig6AndFig11StopWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig6PipelineOf(TestScale(), 6).RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("fig6 err = %v, want context.Canceled", err)
	}
	if _, err := Fig11Decomposition(ctx, TestScale(), 11); !errors.Is(err, context.Canceled) {
		t.Fatalf("fig11 err = %v, want context.Canceled", err)
	}
}

func TestRingRadialStatsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline")
	}
	res, err := Fig5PipelineOf(Scale{M: 64, Steps: 150, RecordEvery: 150}, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	inner, outer := RingRadialStats(res)
	if math.IsNaN(inner) || math.IsNaN(outer) {
		t.Fatal("non-finite ring stats")
	}
	if inner <= outer {
		t.Logf("note: inner scatter %v not above outer %v at this scale (paper claim holds at larger M)", inner, outer)
	}
}
