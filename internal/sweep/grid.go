package sweep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/spec"
)

// cellForce draws a grid cell's interaction over l types from the
// family f, using the given deterministic sub-stream.
func cellForce(f spec.GridForce, l int, draw rngx.Source) forces.Scaling {
	switch f.Family {
	case "f2":
		kLo, kHi := defRange(f.KLo, f.KHi, 1, 10)
		tauLo, tauHi := defRange(f.TauLo, f.TauHi, 1, 10)
		return forces.RandomF2(l, kLo, kHi, tauLo, tauHi, draw)
	default: // "f1", guaranteed by spec validation
		k := f.K
		if k <= 0 {
			k = 1
		}
		rLo, rHi := defRange(f.RLo, f.RHi, 2, 8)
		return forces.MustF1(forces.ConstantMatrix(l, k), forces.RandomMatrix(l, rLo, rHi, draw))
	}
}

func defRange(lo, hi, dLo, dHi float64) (float64, float64) {
	if lo == 0 && hi == 0 {
		return dLo, dHi
	}
	return lo, hi
}

// runGrid builds the run set of a validated grid spec, executes it
// through sw (nil runs serially), and reduces each (typeCount, cutoff)
// cell to its mean MI curve. sc is the spec's effective scale. Every
// run's random draw and ensemble seed come from rngx.Split sub-streams of
// the master seed indexed by (cell, repeat), so the grid is reproducible
// and every run is independent of execution order. Cancelling the context
// stops the sweep within one token-grant (completed runs keep any
// checkpoints).
func runGrid(ctx context.Context, sw experiment.Sweeper, sp spec.Spec, sc experiment.Scale) (*experiment.FigureData, error) {
	if sw == nil {
		sw = experiment.SerialSweeper{}
	}
	if sc.Repeats < 1 {
		return nil, fmt.Errorf("sweep: grid %q needs repeats >= 1, got %d", sp.Name, sc.Repeats)
	}
	name := sp.Name
	if name == "" {
		name = "grid"
	}
	n := 20
	if sp.Sim != nil && sp.Sim.N > 0 {
		n = sp.Sim.N
	}
	var est spec.Estimator
	if sp.Estimator != nil {
		est = *sp.Estimator
	}
	g := sp.Sweep
	typeCounts := g.TypeCounts
	if len(typeCounts) == 0 {
		typeCounts = []int{1}
	}
	cutoffs := g.Cutoffs
	if len(cutoffs) == 0 {
		cutoffs = []float64{math.Inf(1)}
	}

	type cell struct {
		l  int
		rc float64
	}
	var cells []cell
	for _, l := range typeCounts {
		for _, rc := range cutoffs {
			if rc <= 0 {
				rc = math.Inf(1)
			}
			cells = append(cells, cell{l, rc})
		}
	}
	var specs []experiment.SweepSpec
	for ci, c := range cells {
		for rep := 0; rep < sc.Repeats; rep++ {
			draw := rngx.Split(sp.Seed, uint64(ci)*1_000_003+uint64(rep)*2+1)
			specs = append(specs, experiment.SweepSpec{
				ID: fmt.Sprintf("%s-l%d-rc%g-rep%d", name, c.l, c.rc, rep),
				Pipeline: experiment.Pipeline{
					Name:           fmt.Sprintf("%s-l%d-rc%g", name, c.l, c.rc),
					Estimator:      experiment.EstimatorKind(est.Kind),
					K:              est.K,
					Bins:           est.Bins,
					Tier:           experiment.EstimatorTier(est.Tier),
					Subsample:      est.Subsample,
					Decompose:      est.Decompose,
					TrackEntropies: est.TrackEntropies,
					Ensemble: sim.EnsembleConfig{
						Sim: sim.Config{
							N:      n,
							Types:  sim.TypesRoundRobin(n, c.l),
							Force:  cellForce(*g.Force, c.l, draw),
							Cutoff: c.rc,
						},
						M:           sc.M,
						Steps:       sc.Steps,
						RecordEvery: sc.RecordEvery,
						Seed:        rngx.Split(sp.Seed, uint64(ci)*1_000_033+uint64(rep)*2).Uint64(),
					},
				},
			})
		}
	}
	results, err := sw.Sweep(ctx, specs)
	if err != nil {
		return nil, err
	}
	fd := &experiment.FigureData{
		ID:    name,
		Title: fmt.Sprintf("Custom grid %q: mean MI vs time per (l, rc) cell (%s family)", name, g.Force.Family),
		Notes: fmt.Sprintf("n=%d, %d repeats per cell, master seed splits per (cell, repeat).", n, sc.Repeats),
	}
	for ci, c := range cells {
		times, mi, err := experiment.MeanMICurve(results[ci*sc.Repeats : (ci+1)*sc.Repeats])
		if err != nil {
			return nil, err
		}
		sname := fmt.Sprintf("l=%d,rc=%g", c.l, c.rc)
		if math.IsInf(c.rc, 1) {
			sname = fmt.Sprintf("l=%d,rc=inf", c.l)
		}
		fd.Series = append(fd.Series, experiment.Series{Name: sname, X: experiment.FloatTimes(times), Y: mi})
	}
	return fd, nil
}
