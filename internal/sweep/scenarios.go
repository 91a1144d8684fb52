package sweep

import (
	"context"
	"sort"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Scenario is a named, ready-to-run sweep family: it builds its run grid
// from a Scale and a master seed and reduces the results to one figure.
// The registry covers the paper's sweep figures plus the example-derived
// workloads, so `sopsweep -scenario <name>` regenerates any of them with
// concurrency and checkpointing; custom grids come in as grid specs
// (RunSpec). Run accepts a nil sweeper and then runs serially.
type Scenario struct {
	Name string
	Desc string
	Run  func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error)
}

// Spec returns the scenario's declarative form: the Spec that `sopsweep
// -spec` (or a Session) runs to reproduce this scenario at the given
// scale preset and master seed. Scenario specs round-trip losslessly
// through JSON.
func (s Scenario) Spec(scale string, seed uint64) spec.Spec {
	return spec.Spec{Version: spec.Version, Name: s.Name, Scenario: s.Name, Scale: scale, Seed: seed}
}

// Scenarios returns the registry sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupScenario finds a scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// meanCurveFigure reduces one averaged series to a single-curve figure.
func meanCurveFigure(ctx context.Context, id, title, notes string, sw experiment.Sweeper, sc experiment.Scale, seed uint64, build func(rep int) sim.Config) (*experiment.FigureData, error) {
	times, mi, err := experiment.AverageMI(ctx, sw, sc, seed, build)
	if err != nil {
		return nil, err
	}
	return &experiment.FigureData{
		ID:     id,
		Title:  title,
		Series: []experiment.Series{{Name: "I(W1..Wn)", X: experiment.FloatTimes(times), Y: mi}},
		Notes:  notes,
	}, nil
}

var registry = []Scenario{
	{
		Name: "fig4",
		Desc: "flagship 3-type F1 system: mean MI(t) over repeated ensemble seeds",
		Run: func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
			return meanCurveFigure(ctx, "fig4", "Multi-information vs time (n=50, l=3, rc=5, F1), seed-averaged",
				"Repeats independent ensembles of the Fig. 4 experiment, mean curve.",
				sw, sc, seed, func(int) sim.Config { return experiment.Fig4Params() })
		},
	},
	{
		Name: "fig8",
		Desc: "deltaI vs number of types (F2, random matrices, l = 1..10)",
		Run: func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
			return experiment.Fig8TypeCountSweep(ctx, sw, sc, 10, seed)
		},
	},
	{
		Name: "fig9",
		Desc: "MI(t) for cut-off radii rc in {2.5,5,7.5,10,15,inf} (n=l=20, F1)",
		Run: func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
			return experiment.Fig9CutoffSweep(ctx, sw, sc, seed)
		},
	},
	{
		Name: "fig10",
		Desc: "MI(t) for l in {20,5} x rc in {10,15,inf} (n=20, F1)",
		Run: func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
			return experiment.Fig10TypesVsCutoff(ctx, sw, sc, seed)
		},
	},
	{
		Name: "rings",
		Desc: "single-type two-ring collective (Figs. 5/7): mean MI(t) over ensemble seeds",
		Run: func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
			return meanCurveFigure(ctx, "rings", "Single-type rings: mean multi-information vs time (Fig. 5 family)",
				"rc > 2r: two concentric polygons; the inner ring's free rotation carries the MI.",
				sw, sc, seed, func(int) sim.Config { return experiment.Fig5Params() })
		},
	},
	{
		Name: "cell-adhesion",
		Desc: "4-type differential-adhesion tissue (Fig. 1 morphology): mean MI(t)",
		Run: func(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
			return meanCurveFigure(ctx, "cell-adhesion", "Nucleus-and-membranes tissue: mean multi-information vs time",
				"Differential adhesion sorts the mixed ball into nested layers while MI grows.",
				sw, sc, seed, func(int) sim.Config { return experiment.Fig1Params() })
		},
	},
	{
		Name: "long-range",
		Desc: "type count vs interaction range: l in {20,5} x rc in {2.5,7.5,inf} (examples/longrange)",
		Run:  longRangeScenario,
	},
}

// longRangeScenario is the examples/longrange study as a sweep: the
// Fig. 10 comparison at the example's radii (l ∈ {20, 5} × rc ∈
// {2.5, 7.5, ∞}), expressed as the grid spec it is — one grid-sweep
// implementation serves both the JSON path and this registry entry. The
// grid's f1 family is exactly RandomTypedF1Config (k = 1, r ∈ [2, 8]).
func longRangeScenario(ctx context.Context, sw experiment.Sweeper, sc experiment.Scale, seed uint64) (*experiment.FigureData, error) {
	grid := spec.Spec{
		Version: spec.Version,
		Name:    "long-range",
		Seed:    seed,
		Sim:     &spec.Sim{N: 20},
		Sweep: &spec.Sweep{
			TypeCounts: []int{20, 5},
			Cutoffs:    []float64{2.5, 7.5, -1}, // -1 → rc = ∞
			Force:      &spec.GridForce{Family: "f1"},
		},
	}
	fd, err := runGrid(ctx, sw, grid, sc)
	if err != nil {
		return nil, err
	}
	fd.Title = "Multi-information vs time: type count x interaction range (n=20, F1)"
	fd.Notes = "Paper Secs. 6.1/7.2: long-range interactions organise many-type collectives; " +
		"under local interactions fewer types organise more."
	return fd, nil
}
