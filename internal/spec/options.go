package spec

import "repro/internal/sim"

// Option configures a Spec under construction.
type Option func(*Spec) error

// New builds a spec from options and validates it — the programmatic
// counterpart of loading a JSON file.
func New(name string, opts ...Option) (Spec, error) {
	sp := Spec{Version: Version, Name: name}
	for _, opt := range opts {
		if err := opt(&sp); err != nil {
			return Spec{}, err
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// WithScale applies an ensemble-size preset ("quick", "paper", "test").
func WithScale(preset string) Option {
	return func(sp *Spec) error { sp.Scale = preset; return nil }
}

// WithSeed sets the master seed.
func WithSeed(seed uint64) Option {
	return func(sp *Spec) error { sp.Seed = seed; return nil }
}

// WithSim captures a simulation configuration (the force must be one of
// the serialisable built-in families).
func WithSim(cfg sim.Config) Option {
	return func(sp *Spec) error {
		s, err := SimFromConfig(cfg)
		if err != nil {
			return err
		}
		sp.Sim = s
		return nil
	}
}

// WithEnsemble sets the explicit ensemble grid (overriding any scale
// preset field by field).
func WithEnsemble(m, steps, recordEvery int) Option {
	return func(sp *Spec) error {
		e := sp.ensureEnsemble()
		e.M, e.Steps, e.RecordEvery = m, steps, recordEvery
		return nil
	}
}

// WithRetainEnsemble keeps the raw trajectories in the result.
func WithRetainEnsemble() Option {
	return func(sp *Spec) error { sp.ensureEnsemble().Retain = true; return nil }
}

// WithDecomposition additionally records the per-type Eq. (5)
// decomposition at every recorded step.
func WithDecomposition() Option {
	return func(sp *Spec) error { sp.ensureEstimator().Decompose = true; return nil }
}

// WithEntropyTracking additionally records the per-step entropy profile.
func WithEntropyTracking() Option {
	return func(sp *Spec) error { sp.ensureEstimator().TrackEntropies = true; return nil }
}

func (sp *Spec) ensureEnsemble() *Ensemble {
	if sp.Ensemble == nil {
		sp.Ensemble = &Ensemble{}
	}
	return sp.Ensemble
}

func (sp *Spec) ensureEstimator() *Estimator {
	if sp.Estimator == nil {
		sp.Estimator = &Estimator{}
	}
	return sp.Estimator
}
