package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/forces"
	"repro/internal/mathx"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/vec"
)

// Series is one named curve of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// FigureData is the regenerated content of one paper figure: a set of
// curves plus free-text notes recording parameters and caveats.
type FigureData struct {
	ID     string
	Title  string
	Series []Series
	Notes  string
}

// TypedConfig is a particle configuration with its type assignment, the
// payload of the snapshot figures (Figs. 1, 3, 6, 7, 12).
type TypedConfig struct {
	Label string
	Pos   []vec.Vec2
	Types []int
}

// FloatTimes converts recorded step indices to float64 x-values for
// charts and figure series.
func FloatTimes(times []int) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = float64(t)
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig. 1 — example of a particle configuration (4 types).

// Fig1Params returns the paper's opening example, a nucleus-and-membranes
// tissue: 40 particles of 4 types under F¹ with a nested
// differential-adhesion matrix. Type 0 adheres tightest (nucleus), type 3
// loosest (membrane), and cross-type distances increase with type
// separation, producing the layered morphology of Fig. 1.
func Fig1Params() sim.Config {
	r := forces.MustMatrix([][]float64{
		{1.0, 1.8, 2.6, 3.4},
		{1.8, 1.4, 2.2, 3.0},
		{2.6, 2.2, 1.8, 2.6},
		{3.4, 3.0, 2.6, 2.2},
	})
	return sim.Config{
		N:      40,
		Force:  forces.MustF1(forces.ConstantMatrix(4, 4), r),
		Cutoff: 8,
		// Strong adhesion and a dense neighbourhood need a small step
		// (see sim.MaxStableDt).
		Dt:         0.01,
		InitRadius: 2.5,
	}
}

// Fig1Example simulates the paper's opening example (Fig1Params), run
// well past organisation.
func Fig1Example(seed uint64) (*TypedConfig, error) {
	sys, err := sim.New(Fig1Params(), rngx.New(seed))
	if err != nil {
		return nil, err
	}
	sys.RunUntilEquilibrium(4000)
	return &TypedConfig{Label: "fig1-example", Pos: sys.Positions(), Types: sys.Types()}, nil
}

// ---------------------------------------------------------------------------
// Fig. 2 — the two force-scaling functions.

// Fig2ForceCurves samples F¹ and F² over distance, reproducing the curve
// shapes of Fig. 2 (hard repulsion with saturating attraction for F¹;
// smooth finite-range interaction for F²).
func Fig2ForceCurves() *FigureData {
	f1 := forces.MustF1(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 2))
	f2 := forces.MustF2(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 5))
	xs := mathx.Linspace(0.2, 8, 160)
	fd := &FigureData{
		ID:    "fig2",
		Title: "Force-scaling functions F1 (k=1, r=2) and F2 (k=1, sigma=1, tau=5)",
		Series: []Series{
			{Name: "F1", X: xs, Y: forces.Curve(f1, 0, 0, xs)},
			{Name: "F2", X: xs, Y: forces.Curve(f2, 0, 0, xs)},
		},
		Notes: "F1 crosses zero exactly at r=2 (preferred distance) and saturates at k; " +
			"F2 with sigma=1 is repulsion-only (<=0), matching Sec. 4.1's observation " +
			"that F1 shows stronger attraction relative to repulsion than F2.",
	}
	return fd
}

// ---------------------------------------------------------------------------
// Fig. 3 — equilibrium states for different numbers of types.

// Fig3Equilibria runs three collectives to (near-)equilibrium: a 3-type and
// a 2-type F¹ collective that organise into clustered shapes, and the
// single-type F² collective whose equilibrium is the regular-grid disc the
// paper highlights.
func Fig3Equilibria(seed uint64) ([]TypedConfig, error) {
	var out []TypedConfig

	// l = 3, F1, mild differential adhesion.
	r3 := forces.MustMatrix([][]float64{
		{1.2, 2.4, 3.2},
		{2.4, 1.6, 2.4},
		{3.2, 2.4, 2.0},
	})
	cfg3 := sim.Config{
		N: 39, Force: forces.MustF1(forces.ConstantMatrix(3, 4), r3),
		Cutoff: 6, Dt: 0.01, InitRadius: 2.5,
	}
	sys3, err := sim.New(cfg3, rngx.Split(seed, 3))
	if err != nil {
		return nil, err
	}
	sys3.RunUntilEquilibrium(4000)
	out = append(out, TypedConfig{Label: "l=3 (F1)", Pos: sys3.Positions(), Types: sys3.Types()})

	// l = 2, F1, core/shell.
	r2 := forces.MustMatrix([][]float64{
		{1.0, 2.0},
		{2.0, 2.8},
	})
	cfg2 := sim.Config{
		N: 34, Force: forces.MustF1(forces.ConstantMatrix(2, 4), r2),
		Cutoff: 6, Dt: 0.01, InitRadius: 2.5,
	}
	sys2, err := sim.New(cfg2, rngx.Split(seed, 2))
	if err != nil {
		return nil, err
	}
	sys2.RunUntilEquilibrium(4000)
	out = append(out, TypedConfig{Label: "l=2 (F1)", Pos: sys2.Positions(), Types: sys2.Types()})

	// l = 1, F2: the regular-grid disc.
	f2 := forces.MustF2(forces.ConstantMatrix(1, 4), forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 5))
	cfg1 := sim.Config{N: 40, Force: f2, Cutoff: 5, InitRadius: 3}
	sys1, err := sim.New(cfg1, rngx.Split(seed, 1))
	if err != nil {
		return nil, err
	}
	sys1.Run(600)
	out = append(out, TypedConfig{Label: "l=1 (F2 grid)", Pos: sys1.Positions(), Types: sys1.Types()})
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 4 — multi-information over time for the flagship 3-type experiment.

// Fig4Params returns the exact experiment of Fig. 4: n = 50, l = 3,
// rc = 5.0, r_αβ = {{2.5,5.0,4.0},{5.0,2.5,2.0},{4.0,2.0,3.5}} under F¹
// (the only force family in which r_αβ is directly specifiable).
func Fig4Params() sim.Config {
	r := forces.MustMatrix([][]float64{
		{2.5, 5.0, 4.0},
		{5.0, 2.5, 2.0},
		{4.0, 2.0, 3.5},
	})
	return sim.Config{
		N:      50,
		Force:  forces.MustF1(forces.ConstantMatrix(3, 1), r),
		Cutoff: 5.0,
	}
}

// Fig4PipelineOf is the Fig. 4 experiment as a pipeline value; the
// raw ensemble is not retained (Fig6PipelineOf retains it for the
// per-sample snapshots). The spec layer captures the exact same run from
// it.
func Fig4PipelineOf(sc Scale, seed uint64) Pipeline {
	return Pipeline{
		Name: "fig4",
		Ensemble: sim.EnsembleConfig{
			Sim:         Fig4Params(),
			M:           sc.M,
			Steps:       sc.Steps,
			RecordEvery: sc.RecordEvery,
			Seed:        seed,
		},
	}
}

// Fig6PipelineOf is the Fig. 4 experiment with the raw ensemble retained,
// the input of the Fig. 6 sample-variety snapshots. It is the one figure
// pipeline that opts back into full-trajectory retention.
func Fig6PipelineOf(sc Scale, seed uint64) Pipeline {
	p := Fig4PipelineOf(sc, seed)
	p.Name = "fig6"
	p.RetainEnsemble = true
	return p
}

// ---------------------------------------------------------------------------
// Fig. 5 / Fig. 7 — single-type F¹ collective with rc > 2r: two concentric
// regular polygons whose relative rotation is a residual degree of freedom.

// Fig5Params returns the single-type experiment of Figs. 5 and 7:
// 20 particles of one type under F¹ with the cut-off radius exceeding twice
// the preferred distance, so the collective settles into two concentric
// rings.
func Fig5Params() sim.Config {
	return sim.Config{
		N:      20,
		Force:  forces.MustF1(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 2.0)),
		Cutoff: 5.0, // > 2·r_αα = 4
	}
}

// Fig5PipelineOf is the Fig. 5 experiment as a pipeline value.
func Fig5PipelineOf(sc Scale, seed uint64) Pipeline {
	return Pipeline{
		Name: "fig5",
		Ensemble: sim.EnsembleConfig{
			Sim:         Fig5Params(),
			M:           sc.M,
			Steps:       sc.Steps,
			RecordEvery: sc.RecordEvery,
			Seed:        seed,
		},
	}
}

// Fig6Snapshots extracts per-sample snapshots from a Fig. 4 result at the
// recorded steps closest to the requested times, for up to maxSamples
// samples — the sample-variety panel of Fig. 6. The result must carry the
// raw ensemble (Pipeline.RetainEnsemble, e.g. via Fig6PipelineOf); a result
// without one yields no snapshots.
func Fig6Snapshots(res *Result, atSteps []int, maxSamples int) []TypedConfig {
	if res.Ensemble == nil {
		return nil
	}
	var out []TypedConfig
	types := res.Ensemble.Types
	for _, want := range atSteps {
		t := closestIndex(res.Times, want)
		frames := res.Ensemble.FramesAt(t)
		for s := 0; s < len(frames) && s < maxSamples; s++ {
			out = append(out, TypedConfig{
				Label: fmt.Sprintf("sample %d, t=%d", s, res.Times[t]),
				Pos:   frames[s],
				Types: types,
			})
		}
	}
	return out
}

func closestIndex(times []int, want int) int {
	best, bestD := 0, math.MaxInt
	for i, t := range times {
		d := t - want
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Fig7AlignedOverlay pools the aligned final-step positions of every sample
// into one overlay configuration — the paper's Fig. 7, where the outer ring
// forms tight clusters across samples while the inner ring is smeared by
// its rotational degree of freedom.
func Fig7AlignedOverlay(res *Result) *TypedConfig {
	ds := res.Observers.Datasets[len(res.Observers.Datasets)-1]
	var pos []vec.Vec2
	var types []int
	for s := 0; s < ds.NumSamples(); s++ {
		for v := 0; v < ds.NumVars(); v++ {
			x := ds.Var(s, v)
			pos = append(pos, vec.Vec2{X: x[0], Y: x[1]})
			types = append(types, res.Labels[v])
		}
	}
	return &TypedConfig{Label: "fig7-overlay", Pos: pos, Types: types}
}

// RingRadialStats quantifies Fig. 7's visual claim: it splits the aligned
// overlay into inner and outer ring by radius and returns the mean angular
// scatter of per-particle position clusters in each ring. The paper's
// observation — the outer ring aligns into dense clusters while the inner
// ring smears — shows up as innerScatter ≫ outerScatter.
func RingRadialStats(res *Result) (innerScatter, outerScatter float64) {
	ds := res.Observers.Datasets[len(res.Observers.Datasets)-1]
	nVars := ds.NumVars()
	m := ds.NumSamples()
	// Mean radius per observer variable decides ring membership.
	radii := make([]float64, nVars)
	for v := 0; v < nVars; v++ {
		var sum float64
		for s := 0; s < m; s++ {
			x := ds.Var(s, v)
			sum += math.Hypot(x[0], x[1])
		}
		radii[v] = sum / float64(m)
	}
	med := mathx.Median(radii)
	var inner, outer []float64
	for v := 0; v < nVars; v++ {
		// Scatter: RMS distance of the variable's samples from their
		// own mean.
		var mx, my float64
		for s := 0; s < m; s++ {
			x := ds.Var(s, v)
			mx += x[0]
			my += x[1]
		}
		mx /= float64(m)
		my /= float64(m)
		var rms float64
		for s := 0; s < m; s++ {
			x := ds.Var(s, v)
			rms += mathx.Sq(x[0]-mx) + mathx.Sq(x[1]-my)
		}
		rms = math.Sqrt(rms / float64(m))
		if radii[v] < med {
			inner = append(inner, rms)
		} else {
			outer = append(outer, rms)
		}
	}
	return mathx.Mean(inner), mathx.Mean(outer)
}

// ---------------------------------------------------------------------------
// Fig. 8 — ΔI vs number of types under F².

// Fig8Specs builds the full run grid of Fig. 8 — l = 1…maxTypes under F²
// with random symmetric matrices, sc.Repeats independent draws per l —
// in the serial loop's (l, rep) order, with the serial loop's exact seed
// and matrix-draw streams. Every draw uses its own rngx.Split sub-stream,
// so the specs are identical no matter how (or how concurrently) they are
// later executed.
func Fig8Specs(sc Scale, maxTypes int, seed uint64) []SweepSpec {
	specs := make([]SweepSpec, 0, maxTypes*sc.Repeats)
	for l := 1; l <= maxTypes; l++ {
		for rep := 0; rep < sc.Repeats; rep++ {
			rng := rngx.Split(seed, uint64(l*1000+rep))
			f := forces.RandomF2(l, 1, 10, 1, 10, rng)
			specs = append(specs, SweepSpec{
				ID: fmt.Sprintf("fig8-l%d-rep%d", l, rep),
				Pipeline: Pipeline{
					Name: fmt.Sprintf("fig8-l%d-rep%d", l, rep),
					Ensemble: sim.EnsembleConfig{
						Sim:         sim.Config{N: 20, Force: f, Cutoff: 7.5},
						M:           sc.M,
						Steps:       sc.Steps,
						RecordEvery: sc.Steps, // only first and last frame needed
						Seed:        seed + uint64(l*7919+rep),
					},
				},
			})
		}
	}
	return specs
}

// Fig8TypeCountSweep measures the multi-information increase between t=0
// and t_max for l = 1…maxTypes under F² with random symmetric matrices,
// averaged over sc.Repeats draws (the paper: 10 draws, l up to 10,
// τ-family randomised; see DESIGN.md on the r→τ substitution). The runs
// execute through sw (nil = serial); output is bit-identical for every
// sweeper and concurrency setting.
func Fig8TypeCountSweep(ctx context.Context, sw Sweeper, sc Scale, maxTypes int, seed uint64) (*FigureData, error) {
	if err := validateRepeats(sc); err != nil {
		return nil, err
	}
	if maxTypes < 1 {
		return nil, fmt.Errorf("experiment: Fig8TypeCountSweep needs maxTypes >= 1, got %d", maxTypes)
	}
	results, err := sweeperOrSerial(sw).Sweep(ctx, Fig8Specs(sc, maxTypes, seed))
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, maxTypes)
	ys := make([]float64, 0, maxTypes)
	for l := 1; l <= maxTypes; l++ {
		xs = append(xs, float64(l))
		ys = append(ys, MeanDeltaI(results[(l-1)*sc.Repeats:l*sc.Repeats]))
	}
	return &FigureData{
		ID:     "fig8",
		Title:  "Increase of multi-information t=0 -> t_max vs number of types (F2)",
		Series: []Series{{Name: "deltaI", X: xs, Y: ys}},
		Notes: "Paper: decreasing trend in l for F2 with random matrices. " +
			"Averaged over random symmetric (k, tau) draws.",
	}, nil
}

// ---------------------------------------------------------------------------
// Figs. 9 & 10 — cut-off radius and type-count sweeps under F¹.

// RandomTypedF1Config builds the random-type F¹ system of Figs. 9/10 (and
// the long-range scenario family): n particles, l types assigned
// round-robin, r_αβ ∈ [2, 8], k_αβ = 1.
func RandomTypedF1Config(n, l int, rc float64, draw rngx.Source) sim.Config {
	f := forces.MustF1(forces.ConstantMatrix(l, 1), forces.RandomMatrix(l, 2, 8, draw))
	return sim.Config{N: n, Types: sim.TypesRoundRobin(n, l), Force: f, Cutoff: rc}
}

// repeatSpecs builds the sc.Repeats runs of one averaged series: rep r
// simulates build(r) with ensemble seed seed + r·104729 (the historical
// stride). idPrefix must be unique per series within a sweep.
func repeatSpecs(idPrefix string, sc Scale, seed uint64, build func(rep int) sim.Config) []SweepSpec {
	specs := make([]SweepSpec, sc.Repeats)
	for rep := 0; rep < sc.Repeats; rep++ {
		specs[rep] = SweepSpec{
			ID: fmt.Sprintf("%s-rep%d", idPrefix, rep),
			Pipeline: Pipeline{
				Name: fmt.Sprintf("avg-rep%d", rep),
				Ensemble: sim.EnsembleConfig{
					Sim:         build(rep),
					M:           sc.M,
					Steps:       sc.Steps,
					RecordEvery: sc.RecordEvery,
					Seed:        seed + uint64(rep)*104729,
				},
			},
		}
	}
	return specs
}

// AverageMI runs the pipeline for sc.Repeats random draws through sw and
// returns the pointwise-mean MI curve (all runs share the recorded time
// grid). It is the one-series form of the Figs. 9/10 sweep machinery,
// exported for the scenario registry.
func AverageMI(ctx context.Context, sw Sweeper, sc Scale, seed uint64, build func(rep int) sim.Config) ([]int, []float64, error) {
	if err := validateRepeats(sc); err != nil {
		return nil, nil, err
	}
	results, err := sweeperOrSerial(sw).Sweep(ctx, repeatSpecs("avg", sc, seed, build))
	if err != nil {
		return nil, nil, err
	}
	return MeanMICurve(results)
}

// Fig9CutoffSweep reproduces Fig. 9: MI(t) for 20 particles with 20
// distinct types (l = n) under F¹, for cut-off radii
// rc ∈ {2.5, 5, 7.5, 10, 15, ∞}, averaged over random r_αβ draws. The
// paper's headline: MI increases with rc even though the configurations
// look unstructured; locality (small rc) limits self-organisation.
func Fig9CutoffSweep(ctx context.Context, sw Sweeper, sc Scale, seed uint64) (*FigureData, error) {
	if err := validateRepeats(sc); err != nil {
		return nil, err
	}
	radii := []float64{2.5, 5.0, 7.5, 10.0, 15.0, math.Inf(1)}
	fd := &FigureData{
		ID:    "fig9",
		Title: "Multi-information vs time for different cut-off radii (n=l=20, F1)",
		Notes: "Paper: MI at t_max increases monotonically with rc; rc<=7.5 strongly limited.",
	}
	// One batch over the whole radius × repeat grid: a concurrent sweeper
	// overlaps runs across series instead of draining one radius at a
	// time. Seeds and draw streams are the historical per-series ones.
	var specs []SweepSpec
	for ri, rc := range radii {
		specs = append(specs, repeatSpecs(fmt.Sprintf("fig9-rc%g", rc), sc, seed+uint64(ri)*15485863,
			func(rep int) sim.Config {
				draw := rngx.Split(seed, uint64(ri*100+rep))
				return RandomTypedF1Config(20, 20, rc, draw)
			})...)
	}
	results, err := sweeperOrSerial(sw).Sweep(ctx, specs)
	if err != nil {
		return nil, err
	}
	for ri, rc := range radii {
		times, mi, err := MeanMICurve(results[ri*sc.Repeats : (ri+1)*sc.Repeats])
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("rc=%g", rc)
		if math.IsInf(rc, 1) {
			name = "rc=inf"
		}
		fd.Series = append(fd.Series, Series{Name: name, X: FloatTimes(times), Y: mi})
	}
	return fd, nil
}

// Fig10TypesVsCutoff reproduces Fig. 10: MI(t) for l ∈ {20, 5} ×
// rc ∈ {10, 15, ∞} with 20 particles under F¹. The paper's headline: with
// locally limited interactions, fewer types self-organise MORE than many
// types — regular same-type clusters restore long-range information flow.
func Fig10TypesVsCutoff(ctx context.Context, sw Sweeper, sc Scale, seed uint64) (*FigureData, error) {
	if err := validateRepeats(sc); err != nil {
		return nil, err
	}
	fd := &FigureData{
		ID:    "fig10",
		Title: "Multi-information vs time for l in {20,5} and rc in {10,15,inf} (n=20, F1)",
		Notes: "Paper: for finite rc the l=5 curves rise above the l=20 curves; at rc=inf they are comparable.",
	}
	cases := []struct {
		l  int
		rc float64
	}{
		{20, 10}, {20, 15}, {20, math.Inf(1)},
		{5, 10}, {5, 15}, {5, math.Inf(1)},
	}
	var specs []SweepSpec
	for ci, c := range cases {
		specs = append(specs, repeatSpecs(fmt.Sprintf("fig10-l%d-rc%g", c.l, c.rc), sc, seed+uint64(ci)*32452843,
			func(rep int) sim.Config {
				draw := rngx.Split(seed, uint64(ci*100+rep))
				return RandomTypedF1Config(20, c.l, c.rc, draw)
			})...)
	}
	results, err := sweeperOrSerial(sw).Sweep(ctx, specs)
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		times, mi, err := MeanMICurve(results[ci*sc.Repeats : (ci+1)*sc.Repeats])
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("l=%d,rc=%g", c.l, c.rc)
		if math.IsInf(c.rc, 1) {
			name = fmt.Sprintf("l=%d,rc=inf", c.l)
		}
		fd.Series = append(fd.Series, Series{Name: name, X: FloatTimes(times), Y: mi})
	}
	return fd, nil
}

// ---------------------------------------------------------------------------
// Fig. 11 — normalised decomposition of the multi-information.

// Fig11PipelineOf is the Fig. 11 experiment as a pipeline value: one
// l=5, rc=15 system from the Fig. 10 family with the decomposition
// enabled (the random r_αβ draw is split off the master seed, so the
// pipeline — and its spec form — pins the exact matrices).
func Fig11PipelineOf(sc Scale, seed uint64) Pipeline {
	draw := rngx.Split(seed, 11)
	return Pipeline{
		Name: "fig11",
		Ensemble: sim.EnsembleConfig{
			Sim:         RandomTypedF1Config(20, 5, 15, draw),
			M:           sc.M,
			Steps:       sc.Steps,
			RecordEvery: sc.RecordEvery,
			Seed:        seed,
		},
		Decompose: true,
	}
}

// Fig11Decomposition runs one l=5, rc=15 system from the Fig. 10 family
// with the per-type decomposition enabled and returns the decomposition
// terms normalised by the total at each time step — the presentation of
// Fig. 11 (between-type term plus one within-type term per type).
// Cancelling the context stops the run and returns the context's error.
func Fig11Decomposition(ctx context.Context, sc Scale, seed uint64) (*FigureData, error) {
	res, err := Fig11PipelineOf(sc, seed).RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	fd := DecompositionFigure(res, "fig11", "Normalized decomposition of multi-information (l=5, rc=15, F1)")
	fd.Notes = "Paper: contributions vary early, then settle to stable fractions while total MI still grows."
	return fd, nil
}

// DecompositionFigure renders a decomposed result in the Fig. 11
// presentation — the normalised between/within fractions plus the total
// MI trace scaled to its maximum. It is shared by the fig11 driver and
// the spec dispatcher, so a Decompose spec replayed from JSON produces
// the same figure data as the figure command that dumped it.
func DecompositionFigure(res *Result, id, title string) *FigureData {
	fd := &FigureData{ID: id, Title: title}
	xs := FloatTimes(res.Times)
	between := make([]float64, len(res.Times))
	within := make([][]float64, len(res.Decomp[0].Within))
	for g := range within {
		within[g] = make([]float64, len(res.Times))
	}
	total := make([]float64, len(res.Times))
	for t, dec := range res.Decomp {
		norm := dec.Normalized()
		between[t] = norm.Between
		for g := range norm.Within {
			within[g][t] = norm.Within[g]
		}
		total[t] = dec.Total()
	}
	// Normalise the total-MI trace to its maximum, as in the figure.
	_, maxTot := mathx.MinMax(total)
	if maxTot > 0 {
		for t := range total {
			total[t] /= maxTot
		}
	}
	fd.Series = append(fd.Series, Series{Name: "total (scaled)", X: xs, Y: total})
	fd.Series = append(fd.Series, Series{Name: "between-types", X: xs, Y: between})
	for g := range within {
		fd.Series = append(fd.Series, Series{Name: fmt.Sprintf("type %d", g), X: xs, Y: within[g]})
	}
	return fd
}

// ---------------------------------------------------------------------------
// Fig. 12 — emergent structures with few types and local interactions.

// Fig12EmergentStructures runs the designed few-type, small-rc F¹ systems
// of Sec. 7.2: a ball enclosed in a ring, and a layered three-type
// collective.
func Fig12EmergentStructures(seed uint64) ([]TypedConfig, error) {
	var out []TypedConfig

	// Ball-in-ring: core type adheres tightly, shell type keeps a larger
	// distance to itself and a medium distance to the core.
	rBall := forces.MustMatrix([][]float64{
		{1.0, 2.0},
		{2.0, 2.6},
	})
	cfgBall := sim.Config{
		N:     36,
		Types: sim.TypesBlocks(36, 2),
		Force: forces.MustF1(forces.ConstantMatrix(2, 4), rBall),
		// Small cut-off relative to the collective: interactions are
		// local (the Sec. 7.2 regime). Strong adhesion needs a small
		// step (sim.MaxStableDt).
		Cutoff:     6,
		Dt:         0.01,
		InitRadius: 2.5,
	}
	sysBall, err := sim.New(cfgBall, rngx.Split(seed, 121))
	if err != nil {
		return nil, err
	}
	sysBall.RunUntilEquilibrium(4000)
	out = append(out, TypedConfig{Label: "ball-in-ring", Pos: sysBall.Positions(), Types: sysBall.Types()})

	// Layers: three types with graded mutual distances.
	rLayer := forces.MustMatrix([][]float64{
		{1.2, 1.8, 3.6},
		{1.8, 1.2, 1.8},
		{3.6, 1.8, 1.2},
	})
	cfgLayer := sim.Config{
		N:          42,
		Types:      sim.TypesBlocks(42, 3),
		Force:      forces.MustF1(forces.ConstantMatrix(3, 4), rLayer),
		Cutoff:     6,
		Dt:         0.01,
		InitRadius: 2.5,
	}
	sysLayer, err := sim.New(cfgLayer, rngx.Split(seed, 122))
	if err != nil {
		return nil, err
	}
	sysLayer.RunUntilEquilibrium(4000)
	out = append(out, TypedConfig{Label: "layers", Pos: sysLayer.Positions(), Types: sysLayer.Types()})
	return out, nil
}
