package sim

import (
	"context"

	"repro/internal/vec"
	"repro/internal/workpool"
)

// EnsembleConfig describes an experiment's ensemble: m independent runs of
// the same Config with different random streams (Sec. 5.1: "to gather
// statistics for an experiment, we need to run the simulation multiple
// times").
type EnsembleConfig struct {
	// Sim is the per-run configuration (shared by all samples).
	Sim Config
	// M is the number of samples (the paper uses 500–1000).
	M int
	// Steps is t_max, the number of integrator steps per run (the paper
	// uses 100–250).
	Steps int
	// RecordEvery selects which frames are kept: steps 0, RecordEvery,
	// 2·RecordEvery, …, and always the final step. 1 keeps everything;
	// 0 defaults to 1.
	RecordEvery int
	// Seed is the experiment master seed; sample i runs on the
	// deterministic sub-stream Split(Seed, i), so results do not depend
	// on scheduling.
	Seed uint64
	// Workers bounds the sample-level parallelism (independent runs
	// executed concurrently); 0 means GOMAXPROCS. Results never depend
	// on this count: every sample runs on its own positional seed.
	Workers int //sopslint:nohash sample-level parallelism; results are bit-identical for every count
	// Tokens, when non-nil, is a shared execution budget the sample
	// workers draw from: each sample's full run holds one token. It lets
	// several concurrently running ensembles (a sweep) share one global
	// worker budget instead of each assuming the whole machine. Runtime
	// only — never persisted; results never depend on it.
	Tokens *workpool.Tokens //sopslint:nohash shared runtime budget; results never depend on it
}

// Trajectory is the recorded output of one sample: Frames[t][i] is the
// position of particle i at recorded step Times[t].
type Trajectory struct {
	Times  []int
	Frames [][]vec.Vec2
}

// Ensemble is the recorded output of all m samples of an experiment, the
// raw material z of Sec. 5.1 (Eq. 17).
type Ensemble struct {
	Cfg   EnsembleConfig
	Types []int
	// Trajs[s] is sample s. All trajectories share the same Times.
	Trajs []Trajectory
	// Equilibrated[s] reports whether sample s met the equilibrium
	// criterion at some recorded point during its run.
	Equilibrated []bool
}

// Times returns the shared recorded step indices.
func (e *Ensemble) Times() []int {
	if len(e.Trajs) == 0 {
		return nil
	}
	return e.Trajs[0].Times
}

// FramesAt collects frame t (an index into Times, not a step count) across
// all samples: the z^(t) sample matrix of Eq. (17). The returned slices
// alias the stored trajectories; treat them as read-only.
func (e *Ensemble) FramesAt(t int) [][]vec.Vec2 {
	out := make([][]vec.Vec2, len(e.Trajs))
	for s := range e.Trajs {
		out[s] = e.Trajs[s].Frames[t]
	}
	return out
}

// RunEnsembleCtx executes the ensemble on a worker pool and retains every
// trajectory. Sample i is seeded with rngx.Split(Seed, i) regardless of
// which worker runs it, so the result is bit-identical for any worker
// count. It is the full-retention composition of StreamEnsembleCtx with a
// Collector; pipelines that only need each frame once should stream
// instead and keep peak memory independent of M×Steps. Cancellation stops
// the sample pool within one token-grant and returns the context's error;
// no partial ensemble is returned.
func RunEnsembleCtx(ctx context.Context, ec EnsembleConfig) (*Ensemble, error) {
	col, err := NewCollector(ec)
	if err != nil {
		return nil, err
	}
	if _, err := StreamEnsembleCtx(ctx, ec, col.Visit); err != nil {
		return nil, err
	}
	return col.Ensemble(), nil
}
