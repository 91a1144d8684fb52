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

// GridForce selects the random interaction family of a grid cell; it is
// the spec layer's type — the sweep grid is one face of the declarative
// Spec.
type GridForce = spec.GridForce

// GridSpec is the executable form of a custom sweep grid: a grid over
// type counts × cut-off radii of random-matrix systems, every cell
// averaged over repeated draws. It is built from (and converts back to)
// the declarative spec.Spec — `sopsweep -spec file.json` parses the
// versioned Spec format and runs through GridFromSpec.
//
// A cutoff ≤ 0 means rc = ∞. Zero-valued scale fields (M, Steps,
// RecordEvery, Repeats) inherit the surrounding Scale.
type GridSpec struct {
	Name       string
	N          int
	TypeCounts []int
	Cutoffs    []float64
	Force      GridForce

	// Scale overrides; 0 inherits the surrounding Scale.
	M           int
	Steps       int
	RecordEvery int
	Repeats     int

	// Estimator selects the MI estimator ("" = pipeline default, the
	// corrected KSG-2); K is its k-NN parameter (0 = default 4); Bins
	// the per-dimension bin count of the binned kind.
	Estimator string
	K         int
	Bins      int
	// Tier selects the estimator tier ("" / "exact" or "approx");
	// Subsample is the approximate tier's per-run evaluation budget
	// (1 ≤ r < m).
	Tier      string
	Subsample int
	// Decompose additionally records the per-type decomposition;
	// TrackEntropies the per-step entropy profile.
	Decompose      bool
	TrackEntropies bool
}

// validate delegates to the spec layer's grid validation, so grids built
// in code and Spec sweeps are held to identical rules.
func (g *GridSpec) validate() error {
	if g.N < 0 || g.M < 0 || g.Steps < 0 || g.RecordEvery < 0 || g.K < 0 {
		return fmt.Errorf("negative counts are invalid")
	}
	sp := g.Spec("", 0)
	return sp.Validate()
}

// Spec converts the grid to its declarative form: the versioned,
// JSON-round-trippable Spec every entry point consumes. The grid's scale
// overrides become explicit ensemble fields; scale names the surrounding
// preset.
func (g *GridSpec) Spec(scale string, seed uint64) spec.Spec {
	sp := spec.Spec{
		Version: spec.Version,
		Name:    g.Name,
		Scale:   scale,
		Seed:    seed,
		Sweep: &spec.Sweep{
			TypeCounts: append([]int(nil), g.TypeCounts...),
			Cutoffs:    append([]float64(nil), g.Cutoffs...),
			Repeats:    g.Repeats,
		},
	}
	f := g.Force
	sp.Sweep.Force = &f
	if g.N > 0 {
		sp.Sim = &spec.Sim{N: g.N}
	}
	if g.M > 0 || g.Steps > 0 || g.RecordEvery > 0 {
		sp.Ensemble = &spec.Ensemble{M: g.M, Steps: g.Steps, RecordEvery: g.RecordEvery}
	}
	if g.Estimator != "" || g.K > 0 || g.Bins > 0 || g.Tier != "" || g.Subsample > 0 || g.Decompose || g.TrackEntropies {
		sp.Estimator = &spec.Estimator{
			Kind:           g.Estimator,
			K:              g.K,
			Bins:           g.Bins,
			Tier:           g.Tier,
			Subsample:      g.Subsample,
			Decompose:      g.Decompose,
			TrackEntropies: g.TrackEntropies,
		}
	}
	return sp
}

// GridFromSpec materialises a grid-sweep Spec as its executable form.
// Scale-derived fields (m/steps/recordEvery/repeats) are left zero — the
// caller resolves them once through sp.EffectiveScale and passes the
// result to Figure.
func GridFromSpec(sp spec.Spec) (*GridSpec, error) {
	if sp.Kind() != spec.KindGrid {
		return nil, fmt.Errorf("sweep: spec %q is not a grid sweep", sp.Name)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	g := &GridSpec{
		Name:       sp.Name,
		TypeCounts: append([]int(nil), sp.Sweep.TypeCounts...),
		Cutoffs:    append([]float64(nil), sp.Sweep.Cutoffs...),
	}
	if sp.Sweep.Force != nil {
		g.Force = *sp.Sweep.Force
	}
	if sp.Sim != nil {
		g.N = sp.Sim.N
	}
	if est := sp.Estimator; est != nil {
		g.Estimator = est.Kind
		g.K = est.K
		g.Bins = est.Bins
		g.Tier = est.Tier
		g.Subsample = est.Subsample
		g.Decompose = est.Decompose
		g.TrackEntropies = est.TrackEntropies
	}
	return g, nil
}

// scale merges the grid's overrides into the surrounding Scale.
func (g *GridSpec) scale(sc experiment.Scale) experiment.Scale {
	if g.M > 0 {
		sc.M = g.M
	}
	if g.Steps > 0 {
		sc.Steps = g.Steps
	}
	if g.RecordEvery > 0 {
		sc.RecordEvery = g.RecordEvery
	}
	if g.Repeats > 0 {
		sc.Repeats = g.Repeats
	}
	return sc
}

// cellForce draws the cell's interaction from the grid's family, using
// the given deterministic sub-stream.
func (g *GridSpec) cellForce(l int, draw rngx.Source) forces.Scaling {
	f := g.Force
	switch f.Family {
	case "f2":
		kLo, kHi := defRange(f.KLo, f.KHi, 1, 10)
		tauLo, tauHi := defRange(f.TauLo, f.TauHi, 1, 10)
		return forces.RandomF2(l, kLo, kHi, tauLo, tauHi, draw)
	default: // "f1", guaranteed by validate
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

// Figure builds the grid's run set, executes it through sw, and reduces
// each (typeCount, cutoff) cell to its mean MI curve. Every run's random
// draw and ensemble seed come from rngx.Split sub-streams of the master
// seed indexed by (cell, repeat), so the grid is reproducible and every
// spec is independent of execution order. Cancelling the context stops
// the sweep within one token-grant (completed runs keep any checkpoints).
func (g *GridSpec) Figure(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
	if sw == nil {
		sw = experiment.SerialSweeper{}
	}
	if err := g.validate(); err != nil {
		return nil, fmt.Errorf("sweep: grid %q: %w", g.Name, err)
	}
	sc = g.scale(sc)
	if sc.Repeats < 1 {
		return nil, fmt.Errorf("sweep: grid %q needs repeats >= 1, got %d", g.Name, sc.Repeats)
	}
	name := g.Name
	if name == "" {
		name = "grid"
	}
	n := g.N
	if n <= 0 {
		n = 20
	}
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
			draw := rngx.Split(seed, uint64(ci)*1_000_003+uint64(rep)*2+1)
			specs = append(specs, experiment.SweepSpec{
				ID: fmt.Sprintf("%s-l%d-rc%g-rep%d", name, c.l, c.rc, rep),
				Pipeline: experiment.Pipeline{
					Name:           fmt.Sprintf("%s-l%d-rc%g", name, c.l, c.rc),
					Estimator:      experiment.EstimatorKind(g.Estimator),
					K:              g.K,
					Bins:           g.Bins,
					Tier:           experiment.EstimatorTier(g.Tier),
					Subsample:      g.Subsample,
					Decompose:      g.Decompose,
					TrackEntropies: g.TrackEntropies,
					Ensemble: sim.EnsembleConfig{
						Sim: sim.Config{
							N:      n,
							Types:  sim.TypesRoundRobin(n, c.l),
							Force:  g.cellForce(c.l, draw),
							Cutoff: c.rc,
						},
						M:           sc.M,
						Steps:       sc.Steps,
						RecordEvery: sc.RecordEvery,
						Seed:        rngx.Split(seed, uint64(ci)*1_000_033+uint64(rep)*2).Uint64(),
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
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = float64(t)
		}
		sname := fmt.Sprintf("l=%d,rc=%g", c.l, c.rc)
		if math.IsInf(c.rc, 1) {
			sname = fmt.Sprintf("l=%d,rc=inf", c.l)
		}
		fd.Series = append(fd.Series, experiment.Series{Name: sname, X: xs, Y: mi})
	}
	return fd, nil
}
