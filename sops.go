// Package sops (Self-Organizing Particle Systems) is the public facade of
// this reproduction of Harder & Polani, "Self-organizing particle systems",
// Advances in Complex Systems 16, 1250089 (2012).
//
// It re-exports what the CLIs, the examples and the benchmark use to
// (1) simulate typed particle collectives with differential-adhesion
// interactions (Eq. 6 of the paper), (2) factor the shape symmetries out
// of simulation ensembles (Sec. 5.2), and (3) quantify self-organization
// as the increase of the multi-information of the aligned observer
// variables (Secs. 3.1, 5.3), plus the Session that runs any experiment
// Spec — a single measurement, a custom sweep grid, or a named scenario
// that regenerates a figure of the paper's evaluation.
//
// # Quickstart
//
// An experiment is described once as a Spec and run through a Session,
// the cancellable handle that owns the worker budget:
//
//	cfg := sops.SimConfig{
//		N:      30,
//		Force:  sops.MustF1(sops.ConstantMatrix(3, 1), sops.MustMatrix([][]float64{
//			{1.5, 3.0, 2.5}, {3.0, 1.5, 2.0}, {2.5, 2.0, 1.8},
//		})),
//		Cutoff: 5,
//	}
//	spec, err := sops.NewSpec("demo",
//		sops.WithSim(cfg),
//		sops.WithEnsemble(64 /* samples */, 150 /* steps */, 15 /* record every */),
//		sops.WithSeed(1),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := sops.NewSession().Run(context.Background(), spec)
//	// res.MI is the multi-information (bits) over res.Times; an
//	// increasing curve is self-organization in the paper's sense.
//
// See the examples/ directory for complete programs.
package sops

import (
	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/infodynamics"
	"repro/internal/infotheory"
	"repro/internal/observer"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/statcomplex"
	"repro/internal/sweep"
	"repro/internal/sweep/remote"
	"repro/internal/vec"
	"repro/internal/workpool"
)

// Geometry.
type (
	// Vec2 is a point or displacement in the plane.
	Vec2 = vec.Vec2
)

// Interactions (Sec. 4.1).
type (
	// Matrix is a symmetric per-type-pair parameter matrix.
	Matrix = forces.Matrix
	// Scaling is a force-scaling function F_αβ(x).
	Scaling = forces.Scaling
	// F1 is Eq. (7): k_αβ(1 − r_αβ/x).
	F1 = forces.F1
)

// Simulation (Secs. 4.1, 5.1).
type (
	// SimConfig specifies one simulation run.
	SimConfig = sim.Config
	// System is a running simulation.
	System = sim.System
	// EnsembleConfig specifies an m-sample experiment ensemble.
	EnsembleConfig = sim.EnsembleConfig
	// Ensemble is a recorded ensemble.
	Ensemble = sim.Ensemble
	// CycleDetector detects limit cycles in a running simulation.
	CycleDetector = sim.CycleDetector
)

// Measurement (Secs. 3.1, 5.2, 5.3).
type (
	// Pipeline is a full experiment: simulate → align → estimate.
	// SpecFromPipeline captures one as a Spec.
	Pipeline = experiment.Pipeline
	// Result is a pipeline outcome (MI time series etc.).
	Result = experiment.Result
	// FigureData is a reduced figure: named curves plus notes; Series is
	// one of its curves. Session.Figure and the sweep scenarios return it.
	FigureData = experiment.FigureData
	Series     = experiment.Series
	// Decomposition is the Eq. (5) split of multi-information.
	Decomposition = infotheory.Decomposition
	// ObserverConfig controls alignment and k-means reduction.
	ObserverConfig = observer.Config
	// Source is a deterministic random source.
	Source = rngx.Source
)

// Approximate estimator tier (Pipeline.Tier / Pipeline.Subsample): the
// KSG sum evaluated at a deterministically drawn subsample of the rows,
// with neighbour searches and counts still exact over all of them, and a
// finite-population-corrected standard error reported per estimate. The
// exact tier stays the default and is bit-identical to the brute-force
// references; the tiers never share checkpoint fingerprints.
type (
	// EstimatorTier selects "exact" or "approx" on a Pipeline.
	EstimatorTier = experiment.EstimatorTier
	// ApproxOptions configures an approximate-tier estimate: the
	// evaluation budget and the (Seed, Sequence) pair keying the draw.
	ApproxOptions = infotheory.ApproxOptions
)

const (
	TierExact  = experiment.TierExact
	TierApprox = experiment.TierApprox
)

// Matrix and force constructors.
var (
	// ConstantMatrix returns a symmetric matrix filled with c.
	ConstantMatrix = forces.ConstantMatrix
	// MustMatrix builds and validates a symmetric matrix from rows and
	// panics on error.
	MustMatrix = forces.MustMatrix
	// MustF1 builds an Eq. (7) interaction and panics on error.
	MustF1 = forces.MustF1
	// RandomMatrixIn draws a symmetric matrix with entries uniform in
	// [lo, hi).
	RandomMatrixIn = forces.RandomMatrix
)

// Simulation helpers.
var (
	// TypesRoundRobin / TypesBlocks assign particle types.
	TypesRoundRobin = sim.TypesRoundRobin
	TypesBlocks     = sim.TypesBlocks
	// SplitRNG returns an independent sub-stream of a seed.
	SplitRNG = rngx.Split
)

// Information dynamics over trajectories (the Sec. 7.3 extension).
type (
	// Trajectory is one particle's positions over recorded steps.
	Trajectory = infodynamics.Trajectory
	// PairTransfer reports bidirectional transfer entropy for a pair.
	PairTransfer = infodynamics.PairTransfer
	// EntropyProfile is the joint/marginal entropy snapshot of one step.
	EntropyProfile = infotheory.EntropyProfile
)

var (
	// TransferEntropy estimates TE(source→target) from trajectories.
	TransferEntropy = infodynamics.TransferEntropy
	// ActiveStorage estimates the active information storage of a
	// particle's trajectory.
	ActiveStorage = infodynamics.ActiveStorage
	// ParticleTrajectories extracts one particle's trajectories from an
	// ensemble.
	ParticleTrajectories = infodynamics.ParticleTrajectories
	// MeasurePairTransfer computes bidirectional TE for a particle pair.
	MeasurePairTransfer = infodynamics.MeasurePairTransfer
)

// Sweep orchestration: batched multi-run experiments under one global
// worker budget, with per-run checkpointing and resume (see DESIGN.md
// "Sweep orchestration").
type (
	// WorkerBudget is a shared pool of execution tokens that bounds the
	// machine-wide active work of any number of concurrent pipelines.
	WorkerBudget = workpool.Tokens
	// ResultStore persists completed sweep runs keyed by ID +
	// fingerprint — the pluggable seam checkpointing and distribution
	// share (see DESIGN.md "Distributed sweeps").
	ResultStore = sweep.ResultStore
	// DirStore is the directory-backed ResultStore (one versioned gob
	// file per run, the WithCheckpointDir layout).
	DirStore = sweep.DirStore
	// SweepWorkerOptions configures ServeSweepWorker.
	SweepWorkerOptions = remote.WorkerOptions
	// SweepSpawnFunc starts one distributed sweep worker; see
	// CommandSpawner.
	SweepSpawnFunc = remote.SpawnFunc
)

var (
	// ServeSweepWorker runs the worker side of a distributed sweep: dial
	// the coordinator, execute specs against the shared store, stream
	// progress back (sopsweep -worker calls this).
	ServeSweepWorker = remote.Serve
	// CommandSpawner starts distributed sweep workers as child processes
	// of a binary with a worker mode.
	CommandSpawner = remote.CommandSpawner
	// SweepWorkerArgs is the canonical argument vector for a
	// sopsweep-style -worker mode, shared so CLI and spawner agree.
	SweepWorkerArgs = remote.WorkerArgs
)

// Statistical complexity (the Sec. 3 alternative measure).
type (
	// ComplexityPoint is one window of a symbolic-complexity profile.
	ComplexityPoint = experiment.ComplexityPoint
	// StatComplexOptions configures ε-machine reconstruction.
	StatComplexOptions = statcomplex.Options
)

// SymbolicComplexityProfile computes windowed statistical complexity over
// an ensemble (the Sec. 7.1 diagnostic).
var SymbolicComplexityProfile = experiment.SymbolicComplexityProfile
