// Package spec defines the one declarative description of an experiment
// that every entry point — library sessions, the four CLIs, and any
// future server — produces and consumes: a versioned, JSON-round-trippable
// Spec covering the simulation (force family and matrices, particle count
// and types, cut-off), the ensemble grid (M, steps, recording, seed), the
// observer reduction, the estimator, a scale preset, and an optional sweep
// grid, with a single Validate() that reports every problem as a typed
// *SpecError and a stable fingerprint that keys checkpoints.
//
// A Spec is data, not behaviour: building one never runs anything, and
// the runtime knobs that can never change a result (worker counts,
// budgets) are carried for convenience but excluded from the fingerprint.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/align"
	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/observer"
	"repro/internal/sim"
)

// Version is the current spec schema version. Loaders accept any version
// up to this one; field additions are backward-compatible (absent fields
// keep their zero meaning) and bump the version only when semantics
// change.
const Version = 1

// Spec is the complete declarative description of one experiment: a
// single measurement run (Sim + Ensemble), a named scenario from the
// sweep registry (Scenario), or a custom sweep grid (Sim + Sweep).
type Spec struct {
	// Version is the schema version; 0 is read as the current Version.
	Version int `json:"version"`
	// Name labels the experiment in records, figures and checkpoints.
	Name string `json:"name,omitempty"`
	// Scenario selects a named sweep family from the registry
	// (fig4/fig8/fig9/fig10/rings/cell-adhesion/long-range). Mutually
	// exclusive with Sim and the Sweep grid fields.
	Scenario string `json:"scenario,omitempty"`
	// Scale names an ensemble-size preset ("quick", "paper", "test");
	// empty applies no preset. Explicit Ensemble fields and
	// Sweep.Repeats override the preset field by field.
	Scale string `json:"scale,omitempty"`
	// Seed is the master seed: the ensemble seed of a single run, or the
	// root of every rngx.Split sub-stream of a scenario or grid sweep.
	Seed uint64 `json:"seed,omitempty"`

	Sim       *Sim       `json:"sim,omitempty"`
	Ensemble  *Ensemble  `json:"ensemble,omitempty"`
	Observer  *Observer  `json:"observer,omitempty"`
	Estimator *Estimator `json:"estimator,omitempty"`
	Sweep     *Sweep     `json:"sweep,omitempty"`
}

// Sim describes one simulation configuration. It mirrors sim.Config with
// JSON-safe conventions: Cutoff ≤ 0 or omitted means rc = ∞ (JSON has no
// infinity literal), omitted numeric fields take the simulator defaults,
// and the force is the serialisable forces.Spec.
type Sim struct {
	N int `json:"n"`
	// Types assigns each particle a type; omitted means round-robin over
	// the force's type count.
	Types []int `json:"types,omitempty"`
	// Force is required for single runs; grid sweeps omit it (each cell
	// draws its own from Sweep.Force).
	Force *forces.Spec `json:"force,omitempty"`
	// Cutoff ≤ 0 or omitted means rc = ∞.
	Cutoff               float64 `json:"cutoff,omitempty"`
	Dt                   float64 `json:"dt,omitempty"`
	NoiseVariance        float64 `json:"noiseVariance,omitempty"`
	InitRadius           float64 `json:"initRadius,omitempty"`
	EquilibriumThreshold float64 `json:"equilibriumThreshold,omitempty"`
	EquilibriumWindow    int     `json:"equilibriumWindow,omitempty"`
	// Workers is the per-step force parallelism (runtime only; excluded
	// from the fingerprint — see sim.Config.Workers for the serial-vs-
	// sharded rounding caveat).
	Workers int `json:"workers,omitempty"`
}

// Ensemble describes the experiment ensemble. Zero fields inherit the
// scale preset.
type Ensemble struct {
	M           int `json:"m,omitempty"`
	Steps       int `json:"steps,omitempty"`
	RecordEvery int `json:"recordEvery,omitempty"`
	// Retain keeps the raw trajectories in the result (snapshot figures,
	// trajectory analyses); off by default — the pipeline then streams
	// with bounded memory.
	Retain bool `json:"retain,omitempty"`
	// Workers is the sample-level simulation parallelism (runtime only;
	// excluded from the fingerprint).
	Workers int `json:"workers,omitempty"`
}

// Observer describes the alignment and reduction stage.
type Observer struct {
	// KMeansK > 0 enables the Sec. 5.3.1 k-means mean-variable reduction.
	KMeansK int `json:"kmeansK,omitempty"`
	// Seed drives the k-means seeding.
	Seed uint64 `json:"seed,omitempty"`
	// SkipAlign bypasses the ICP alignment (ablation knob).
	SkipAlign bool `json:"skipAlign,omitempty"`
	// Reference selects the alignment anchor: "" or "first" (streaming),
	// or "medoid" (batch path).
	Reference string `json:"reference,omitempty"`
}

// Estimator describes the multi-information estimation stage.
type Estimator struct {
	// Kind is one of experiment.ValidEstimators (empty = the default
	// corrected KSG-2).
	Kind string `json:"kind,omitempty"`
	// K is the k-NN parameter of the KSG kinds (0 = the paper's 4).
	K int `json:"k,omitempty"`
	// Bins is the per-dimension bin count of the binned kind.
	Bins int `json:"bins,omitempty"`
	// Tier selects the estimator tier: "exact" (or omitted, the default —
	// absent tiers keep legacy fingerprints byte-identical) or "approx",
	// the subsampled KSG tier with per-step error bars.
	Tier string `json:"tier,omitempty"`
	// Subsample is the approximate tier's per-step evaluation budget r
	// (1 ≤ r < m). Required with tier "approx", rejected without it.
	Subsample int `json:"subsample,omitempty"`
	// Decompose additionally records the per-type Eq. (5) decomposition.
	Decompose bool `json:"decompose,omitempty"`
	// TrackEntropies additionally records the per-step entropy profile.
	TrackEntropies bool `json:"trackEntropies,omitempty"`
	// Workers bounds per-step estimation parallelism; SampleWorkers the
	// within-step sample parallelism (both runtime only; excluded from
	// the fingerprint — results are bit-identical for every setting).
	Workers       int `json:"workers,omitempty"`
	SampleWorkers int `json:"sampleWorkers,omitempty"`
}

// Sweep describes a custom sweep grid: the cross product of TypeCounts ×
// Cutoffs, each cell averaged over Repeats random force draws from the
// Force family. Repeats also overrides the scale preset's repeat count
// for scenario specs.
type Sweep struct {
	TypeCounts []int `json:"typeCounts,omitempty"`
	// Cutoffs entries ≤ 0 mean rc = ∞.
	Cutoffs []float64  `json:"cutoffs,omitempty"`
	Force   *GridForce `json:"force,omitempty"`
	Repeats int        `json:"repeats,omitempty"`
}

// GridForce selects the random interaction family of a sweep-grid cell.
// All bounds are optional; zero values take the paper's sweep defaults.
type GridForce struct {
	// Family is "f1" (random preferred distances, the Figs. 9/10 family)
	// or "f2" (random strength/τ Gaussians, the Fig. 8 family).
	Family string  `json:"family"`
	K      float64 `json:"k,omitempty"`   // f1 constant strength (default 1)
	RLo    float64 `json:"rLo,omitempty"` // f1 r_αβ range (default [2, 8])
	RHi    float64 `json:"rHi,omitempty"`
	KLo    float64 `json:"kLo,omitempty"` // f2 k_αβ range (default [1, 10])
	KHi    float64 `json:"kHi,omitempty"`
	TauLo  float64 `json:"tauLo,omitempty"` // f2 τ_αβ range (default [1, 10])
	TauHi  float64 `json:"tauHi,omitempty"`
}

// Kind classifies what a Spec describes.
type Kind int

const (
	// KindRun is a single measurement pipeline (Sim + Ensemble).
	KindRun Kind = iota
	// KindScenario is a named sweep family from the registry.
	KindScenario
	// KindGrid is a custom sweep grid (Sweep block with grid fields).
	KindGrid
)

func (k Kind) String() string {
	switch k {
	case KindScenario:
		return "scenario"
	case KindGrid:
		return "grid"
	default:
		return "run"
	}
}

// Kind reports what the spec describes. Valid on validated specs;
// ambiguous or incomplete specs are classified best-effort (Validate is
// where they are rejected).
func (sp Spec) Kind() Kind {
	switch {
	case sp.Scenario != "":
		return KindScenario
	case sp.Sweep != nil && (len(sp.Sweep.TypeCounts) > 0 || len(sp.Sweep.Cutoffs) > 0 || sp.Sweep.Force != nil):
		return KindGrid
	default:
		return KindRun
	}
}

// SpecError is one problem found by Validate, naming the offending field
// as a dotted path into the JSON form ("ensemble.m", "sweep.force.family").
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string {
	if e.Field == "" {
		return "spec: " + e.Msg
	}
	return "spec: " + e.Field + ": " + e.Msg
}

// errf builds a SpecError.
func errf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// ScaleByName resolves a scale preset name. The empty name is the empty
// preset (no defaults contributed).
func ScaleByName(name string) (experiment.Scale, error) {
	switch name {
	case "":
		return experiment.Scale{}, nil
	case "quick":
		return experiment.QuickScale(), nil
	case "paper":
		return experiment.PaperScale(), nil
	case "test":
		return experiment.TestScale(), nil
	default:
		return experiment.Scale{}, errf("scale", "unknown preset %q (want quick, paper, or test)", name)
	}
}

// EffectiveScale resolves the spec's scale preset and applies the
// explicit Ensemble and Sweep.Repeats overrides field by field.
func (sp Spec) EffectiveScale() (experiment.Scale, error) {
	sc, err := ScaleByName(sp.Scale)
	if err != nil {
		return sc, err
	}
	if e := sp.Ensemble; e != nil {
		if e.M > 0 {
			sc.M = e.M
		}
		if e.Steps > 0 {
			sc.Steps = e.Steps
		}
		if e.RecordEvery > 0 {
			sc.RecordEvery = e.RecordEvery
		}
	}
	if sp.Sweep != nil && sp.Sweep.Repeats > 0 {
		sc.Repeats = sp.Sweep.Repeats
	}
	return sc, nil
}

// Validate checks the whole spec and reports every problem it can find as
// a *SpecError, joined with errors.Join (match individual fields with
// errors.As). A nil return means the spec resolves to a runnable
// experiment.
func (sp Spec) Validate() error {
	var errs []error
	add := func(e *SpecError) {
		if e != nil {
			errs = append(errs, e)
		}
	}
	if sp.Version < 0 || sp.Version > Version {
		add(errf("version", "unsupported spec version %d (this build reads up to %d)", sp.Version, Version))
	}
	if _, err := ScaleByName(sp.Scale); err != nil {
		var se *SpecError
		errors.As(err, &se)
		add(se)
	}
	if e := sp.Ensemble; e != nil {
		for _, f := range [...]struct {
			name string
			v    int
		}{{"ensemble.m", e.M}, {"ensemble.steps", e.Steps}, {"ensemble.recordEvery", e.RecordEvery}} {
			if f.v < 0 {
				add(errf(f.name, "must be >= 0, got %d", f.v))
			}
		}
	}
	if sp.Estimator != nil {
		for _, e := range sp.Estimator.validate() {
			add(e)
		}
	}
	if sp.Observer != nil {
		for _, e := range sp.Observer.validate() {
			add(e)
		}
	}

	switch sp.Kind() {
	case KindScenario:
		if sp.Sim != nil {
			add(errf("sim", "mutually exclusive with scenario %q", sp.Scenario))
		}
		if sp.Sweep != nil && (len(sp.Sweep.TypeCounts) > 0 || len(sp.Sweep.Cutoffs) > 0 || sp.Sweep.Force != nil) {
			add(errf("sweep", "grid fields are mutually exclusive with scenario %q", sp.Scenario))
		}
		// Scenarios pin their own estimator and observer; accepting and
		// ignoring these blocks would silently mislabel results.
		if sp.Estimator != nil {
			add(errf("estimator", "not configurable for scenario %q (scenarios pin their estimator)", sp.Scenario))
		}
		if sp.Observer != nil {
			add(errf("observer", "not configurable for scenario %q (scenarios pin their observer reduction)", sp.Scenario))
		}
		// The registry itself lives above this package; scenario-name
		// resolution is checked by the sweep layer.
	case KindGrid:
		for _, e := range sp.Sweep.validate() {
			add(e)
		}
		if sp.Sim != nil && sp.Sim.Force != nil {
			add(errf("sim.force", "grid sweeps draw each cell's force from sweep.force; remove one"))
		}
		if sp.Sim != nil && sp.Sim.N < 0 {
			add(errf("sim.n", "must be >= 0, got %d", sp.Sim.N))
		}
		if sp.Observer != nil {
			add(errf("observer", "not supported in grid sweeps (grid cells use the default per-particle observers)"))
		}
	default: // KindRun
		if sp.Sim == nil {
			// A spec without any sim is a fragment (e.g. sopinfo's
			// estimator-only specs): valid to describe, but it cannot
			// declare an ensemble to run.
			if sp.Ensemble != nil || sp.Scale != "" {
				add(errf("sim", "required (or set scenario / a sweep grid)"))
			}
			break
		}
		cfg, err := sp.Sim.Config()
		if err != nil {
			var se *SpecError
			if errors.As(err, &se) {
				add(se)
			} else {
				add(errf("sim", "%v", err))
			}
			break
		}
		if cfg.N <= 0 {
			// Checked before WithDefaults: the round-robin type
			// defaulting panics on a negative N — one of the scattered
			// panics this Validate replaces with a typed error.
			add(errf("sim.n", "must be positive, got %d", cfg.N))
		} else if err := cfg.WithDefaults().Validate(); err != nil {
			add(errf("sim", "%v", err))
		}
		sc, err := sp.EffectiveScale()
		if err == nil {
			// A sim-only spec (no ensemble block, no preset) is valid —
			// it describes a single system (Session.System, sopsim).
			// Once an ensemble is declared it must resolve to a runnable
			// grid; Pipeline() additionally requires one.
			if sp.Ensemble != nil || sp.Scale != "" {
				if sc.M <= 0 {
					add(errf("ensemble.m", "must be positive (set it or a scale preset)"))
				}
				if sc.Steps <= 0 {
					add(errf("ensemble.steps", "must be positive (set it or a scale preset)"))
				}
			}
			if est := sp.Estimator; sc.M > 0 {
				kind, k := experiment.EstimatorKind(""), 0
				track := false
				if est != nil {
					kind, k, track = experiment.EstimatorKind(est.Kind), est.K, est.TrackEntropies
				}
				if kind.UsesKNN() || track {
					effK := k
					if effK == 0 {
						effK = experiment.DefaultKSGK
					}
					if effK >= sc.M {
						add(errf("estimator.k", "k-NN parameter %d must be smaller than the ensemble size m = %d", effK, sc.M))
					}
				}
				if est != nil && experiment.EstimatorTier(est.Tier) == experiment.TierApprox && est.Subsample >= sc.M {
					add(errf("estimator.subsample", "evaluation budget %d must be smaller than the ensemble size m = %d", est.Subsample, sc.M))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// validate checks the estimator block (field paths relative to the spec
// root).
func (e *Estimator) validate() []*SpecError {
	var errs []*SpecError
	if _, err := experiment.NewEstimator(experiment.EstimatorKind(e.Kind), 1, 0, nil); err != nil {
		errs = append(errs, errf("estimator.kind", "%v", err))
	}
	if e.K < 0 {
		errs = append(errs, errf("estimator.k", "must be >= 0, got %d", e.K))
	}
	if e.Bins < 0 {
		errs = append(errs, errf("estimator.bins", "must be >= 0, got %d", e.Bins))
	}
	switch experiment.EstimatorTier(e.Tier) {
	case "", experiment.TierExact:
		if e.Subsample != 0 {
			errs = append(errs, errf("estimator.subsample", `only meaningful with tier "approx"`))
		}
	case experiment.TierApprox:
		if _, ok := experiment.EstimatorKind(e.Kind).KSGVariant(); !ok {
			errs = append(errs, errf("estimator.tier", `"approx" requires a KSG estimator kind, have %q`, e.Kind))
		}
		if e.Subsample < 1 {
			errs = append(errs, errf("estimator.subsample", `tier "approx" needs an evaluation budget >= 1, got %d`, e.Subsample))
		}
	default:
		errs = append(errs, errf("estimator.tier", `unknown tier %q (want "exact" or "approx")`, e.Tier))
	}
	return errs
}

// validate checks the observer block.
func (o *Observer) validate() []*SpecError {
	var errs []*SpecError
	if o.KMeansK < 0 {
		errs = append(errs, errf("observer.kmeansK", "must be >= 0, got %d", o.KMeansK))
	}
	switch o.Reference {
	case "", "first", "medoid":
	default:
		errs = append(errs, errf("observer.reference", "unknown reference %q (want first or medoid)", o.Reference))
	}
	return errs
}

// validate checks the sweep grid block.
func (w *Sweep) validate() []*SpecError {
	var errs []*SpecError
	f := w.Force
	if f == nil {
		errs = append(errs, errf("sweep.force", "required for a grid sweep (family f1 or f2)"))
	} else {
		switch f.Family {
		case "f1", "f2":
		case "":
			errs = append(errs, errf("sweep.force.family", `required ("f1" or "f2")`))
		default:
			errs = append(errs, errf("sweep.force.family", `unknown family %q (want "f1" or "f2")`, f.Family))
		}
		for _, r := range []struct {
			name   string
			lo, hi float64
		}{
			{"rLo/rHi", f.RLo, f.RHi},
			{"kLo/kHi", f.KLo, f.KHi},
			{"tauLo/tauHi", f.TauLo, f.TauHi},
		} {
			// A pair is either fully omitted (both zero → family default)
			// or a proper positive range; a half-specified pair would
			// silently invert the draw interval.
			if r.lo == 0 && r.hi == 0 {
				continue
			}
			if r.lo <= 0 || r.hi <= r.lo {
				errs = append(errs, errf("sweep.force."+r.name, "must satisfy 0 < lo < hi (or omit both for the default), got [%g, %g)", r.lo, r.hi))
			}
		}
	}
	for _, l := range w.TypeCounts {
		if l < 1 {
			errs = append(errs, errf("sweep.typeCounts", "entries must be >= 1, got %d", l))
		}
	}
	if w.Repeats < 0 {
		errs = append(errs, errf("sweep.repeats", "must be >= 0, got %d", w.Repeats))
	}
	return errs
}

// Config materialises the sim block as a sim.Config (defaults not yet
// applied — sim.Config.WithDefaults stays the single place defaults
// live). Specs without a force yield a config without one; single-run
// validation rejects that, grid sweeps fill it per cell.
func (s *Sim) Config() (sim.Config, error) {
	cfg := sim.Config{
		N:                    s.N,
		Types:                append([]int(nil), s.Types...),
		Cutoff:               s.Cutoff,
		Dt:                   s.Dt,
		NoiseVariance:        s.NoiseVariance,
		InitRadius:           s.InitRadius,
		EquilibriumThreshold: s.EquilibriumThreshold,
		EquilibriumWindow:    s.EquilibriumWindow,
		Workers:              s.Workers,
	}
	if len(cfg.Types) == 0 {
		cfg.Types = nil
	}
	if cfg.Cutoff <= 0 {
		// JSON has no infinity literal: absent/zero/negative all mean ∞
		// (matching sim.WithDefaults and the sweep-grid convention).
		cfg.Cutoff = math.Inf(1)
	}
	if s.Force != nil {
		f, err := s.Force.Build()
		if err != nil {
			return cfg, errf("sim.force", "%v", err)
		}
		cfg.Force = f
	}
	return cfg, nil
}

// SimFromConfig captures a sim.Config as a spec block. Infinite cut-offs
// map to the omitted-field convention; the force must be one of the two
// serialisable built-in families.
func SimFromConfig(c sim.Config) (*Sim, error) {
	s := &Sim{
		N:                    c.N,
		Types:                append([]int(nil), c.Types...),
		Cutoff:               c.Cutoff,
		Dt:                   c.Dt,
		NoiseVariance:        c.NoiseVariance,
		InitRadius:           c.InitRadius,
		EquilibriumThreshold: c.EquilibriumThreshold,
		EquilibriumWindow:    c.EquilibriumWindow,
		Workers:              c.Workers,
	}
	if len(s.Types) == 0 {
		s.Types = nil
	}
	if math.IsInf(s.Cutoff, 1) || s.Cutoff < 0 {
		s.Cutoff = 0
	}
	if c.Force != nil {
		fs, err := forces.ToSpec(c.Force)
		if err != nil {
			return nil, err
		}
		s.Force = &fs
	}
	return s, nil
}

// observerConfig materialises the observer block.
func (sp Spec) observerConfig() observer.Config {
	o := sp.Observer
	if o == nil {
		return observer.Config{}
	}
	cfg := observer.Config{
		KMeansK:   o.KMeansK,
		Seed:      o.Seed,
		SkipAlign: o.SkipAlign,
	}
	if o.Reference == "medoid" {
		cfg.Align.Reference = align.RefMedoid
	}
	return cfg
}

// Pipeline materialises a single-run spec as the experiment pipeline it
// describes, with the scale preset resolved into the ensemble grid. It
// validates first; sweeps and scenarios are materialised by the sweep
// layer, not here.
func (sp Spec) Pipeline() (experiment.Pipeline, error) {
	if k := sp.Kind(); k != KindRun {
		return experiment.Pipeline{}, errf("", "a %s spec has no single pipeline form", k)
	}
	if err := sp.Validate(); err != nil {
		return experiment.Pipeline{}, err
	}
	if sp.Sim == nil {
		return experiment.Pipeline{}, errf("sim", "required to run")
	}
	cfg, err := sp.Sim.Config()
	if err != nil {
		return experiment.Pipeline{}, err
	}
	sc, err := sp.EffectiveScale()
	if err != nil {
		return experiment.Pipeline{}, err
	}
	if sc.M <= 0 {
		return experiment.Pipeline{}, errf("ensemble.m", "must be positive (set it or a scale preset)")
	}
	if sc.Steps <= 0 {
		return experiment.Pipeline{}, errf("ensemble.steps", "must be positive (set it or a scale preset)")
	}
	p := experiment.Pipeline{
		Name:     sp.Name,
		Observer: sp.observerConfig(),
		Ensemble: sim.EnsembleConfig{
			Sim:         cfg,
			M:           sc.M,
			Steps:       sc.Steps,
			RecordEvery: sc.RecordEvery,
			Seed:        sp.Seed,
		},
	}
	if e := sp.Ensemble; e != nil {
		p.RetainEnsemble = e.Retain
		p.Ensemble.Workers = e.Workers
	}
	if est := sp.Estimator; est != nil {
		p.Estimator = experiment.EstimatorKind(est.Kind)
		p.K = est.K
		p.Bins = est.Bins
		p.Tier = experiment.EstimatorTier(est.Tier)
		p.Subsample = est.Subsample
		p.Decompose = est.Decompose
		p.TrackEntropies = est.TrackEntropies
		p.Workers = est.Workers
		p.SampleWorkers = est.SampleWorkers
	}
	return p, nil
}

// FromPipeline captures an experiment pipeline as a fully explicit
// single-run spec (no scale preset: the ensemble grid is written out).
// The inverse of Pipeline up to preset expansion: FromPipeline(p).
// Pipeline() rebuilds p exactly, and marshalling the spec to JSON and
// back is lossless.
func FromPipeline(p experiment.Pipeline) (Spec, error) {
	simSpec, err := SimFromConfig(p.Ensemble.Sim)
	if err != nil {
		return Spec{}, err
	}
	sp := Spec{
		Version: Version,
		Name:    p.Name,
		Seed:    p.Ensemble.Seed,
		Sim:     simSpec,
		Ensemble: &Ensemble{
			M:           p.Ensemble.M,
			Steps:       p.Ensemble.Steps,
			RecordEvery: p.Ensemble.RecordEvery,
			Retain:      p.RetainEnsemble,
			Workers:     p.Ensemble.Workers,
		},
	}
	if p.Observer != (observer.Config{}) {
		o := &Observer{
			KMeansK:   p.Observer.KMeansK,
			Seed:      p.Observer.Seed,
			SkipAlign: p.Observer.SkipAlign,
		}
		if p.Observer.Align.Reference == align.RefMedoid {
			o.Reference = "medoid"
		}
		sp.Observer = o
	}
	if p.Estimator != "" || p.K != 0 || p.Bins != 0 || p.Tier != "" || p.Subsample != 0 || p.Decompose || p.TrackEntropies || p.Workers != 0 || p.SampleWorkers != 0 {
		sp.Estimator = &Estimator{
			Kind:           string(p.Estimator),
			K:              p.K,
			Bins:           p.Bins,
			Tier:           string(p.Tier),
			Subsample:      p.Subsample,
			Decompose:      p.Decompose,
			TrackEntropies: p.TrackEntropies,
			Workers:        p.Workers,
			SampleWorkers:  p.SampleWorkers,
		}
	}
	return sp, nil
}

// MergeCLIOverrides fills the spec's open scale/seed/ensemble/repeat
// fields from CLI flags. The spec is authoritative: fields it sets are
// kept (a grid file's own m keeps keying its checkpoints no matter what
// -m says); flags fill only what the spec leaves open. Shared by every
// CLI so the resolution policy cannot drift between commands.
func (sp *Spec) MergeCLIOverrides(scale string, seed uint64, m, steps, repeats int) {
	if sp.Scale == "" {
		sp.Scale = scale
	}
	if sp.Seed == 0 {
		sp.Seed = seed
	}
	if m > 0 || steps > 0 {
		if sp.Ensemble == nil {
			sp.Ensemble = &Ensemble{}
		}
		if m > 0 && sp.Ensemble.M == 0 {
			sp.Ensemble.M = m
		}
		if steps > 0 && sp.Ensemble.Steps == 0 {
			sp.Ensemble.Steps = steps
		}
	}
	if repeats > 0 {
		if sp.Sweep == nil {
			sp.Sweep = &Sweep{}
		}
		if sp.Sweep.Repeats == 0 {
			sp.Sweep.Repeats = repeats
		}
	}
}

// Normalized returns a copy with the version stamped, ready to marshal.
func (sp Spec) Normalized() Spec {
	if sp.Version == 0 {
		sp.Version = Version
	}
	return sp
}

// MarshalIndent renders the spec as canonical indented JSON (the
// -dump-spec output format).
func (sp Spec) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(sp.Normalized(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Load reads and validates a spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return Parse(data, path)
}

// Parse decodes and validates spec JSON. Unknown fields are rejected, so
// a typo'd knob fails loudly instead of silently running the default.
func Parse(data []byte, path string) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec: parse %s: %w", path, err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, fmt.Errorf("spec: %s: %w", path, err)
	}
	return sp, nil
}
