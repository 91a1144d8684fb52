package sweep

import (
	"context"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/spec"
)

// RunSpec executes any Spec — a named scenario, a custom sweep grid, or a
// single measurement run — through the given sweeper and reduces it to
// its figure. It is the one dispatcher every entry point (sopsweep,
// sopfigures, a Session) funnels through, so a spec file means exactly
// the same experiment everywhere. A nil sweeper runs serially.
//
// Cancelling the context stops the underlying sweep within one
// token-grant and returns the context's error; runs that completed under
// a checkpointing sweeper keep their checkpoints, so re-running the same
// spec resumes.
func RunSpec(ctx context.Context, sw experiment.Sweeper, sp spec.Spec) (*experiment.FigureData, error) {
	if sw == nil {
		sw = experiment.SerialSweeper{}
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sc, err := sp.EffectiveScale()
	if err != nil {
		return nil, err
	}
	switch sp.Kind() {
	case spec.KindScenario:
		s, ok := LookupScenario(sp.Scenario)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown scenario %q (known: %s)", sp.Scenario, scenarioNames())
		}
		return s.Run(ctx, sw, sc, sp.Seed)
	case spec.KindGrid:
		return runGrid(ctx, sw, sp, sc)
	default:
		p, err := sp.Pipeline()
		if err != nil {
			return nil, err
		}
		id := sp.Name
		if id == "" {
			id = "run"
		}
		results, err := sw.Sweep(ctx, []experiment.SweepSpec{{ID: id, Pipeline: p}})
		if err != nil {
			return nil, err
		}
		res := results[0]
		if len(res.Decomp) > 0 {
			// A Decompose run renders in the Fig. 11 presentation, so
			// replaying a dumped fig11 spec reproduces the same series.
			return experiment.DecompositionFigure(res, id,
				fmt.Sprintf("Normalized decomposition of multi-information (%s)", id)), nil
		}
		return &experiment.FigureData{
			ID:     id,
			Title:  fmt.Sprintf("Multi-information vs time (%s)", id),
			Series: []experiment.Series{{Name: "I(W1..Wn)", X: experiment.FloatTimes(res.Times), Y: res.MI}},
		}, nil
	}
}

// scenarioNames lists the registry, for error messages.
func scenarioNames() string {
	out := ""
	for i, s := range Scenarios() {
		if i > 0 {
			out += ", "
		}
		out += s.Name
	}
	return out
}
