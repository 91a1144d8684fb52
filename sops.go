// Package sops (Self-Organizing Particle Systems) is the public facade of
// this reproduction of Harder & Polani, "Self-organizing particle systems",
// Advances in Complex Systems 16, 1250089 (2012).
//
// It re-exports the building blocks a user needs to (1) simulate typed
// particle collectives with differential-adhesion interactions (Eq. 6 of
// the paper), (2) factor the shape symmetries out of simulation ensembles
// (Sec. 5.2), and (3) quantify self-organization as the increase of the
// multi-information of the aligned observer variables (Secs. 3.1, 5.3),
// plus the experiment drivers that regenerate every figure of the paper's
// evaluation.
//
// # Quickstart
//
//	cfg := sops.SimConfig{
//		N:      30,
//		Force:  sops.MustF1(sops.ConstantMatrix(3, 1), sops.MustMatrix([][]float64{
//			{1.5, 3.0, 2.5}, {3.0, 1.5, 2.0}, {2.5, 2.0, 1.8},
//		})),
//		Cutoff: 5,
//	}
//	res, err := sops.MeasureSelfOrganization(sops.Pipeline{
//		Name:     "demo",
//		Ensemble: sops.EnsembleConfig{Sim: cfg, M: 64, Steps: 150, RecordEvery: 15, Seed: 1},
//	})
//	// res.MI is the multi-information (bits) over res.Times; an
//	// increasing curve is self-organization in the paper's sense.
//
// See the examples/ directory for complete programs.
package sops

import (
	"repro/internal/align"
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
	// Rigid is a direct planar isometry (rotation + translation).
	Rigid = align.Rigid
)

// Interactions (Sec. 4.1).
type (
	// Matrix is a symmetric per-type-pair parameter matrix.
	Matrix = forces.Matrix
	// Scaling is a force-scaling function F_αβ(x).
	Scaling = forces.Scaling
	// F1 is Eq. (7): k_αβ(1 − r_αβ/x).
	F1 = forces.F1
	// F2 is Eq. (8): the Gaussian-difference interaction.
	F2 = forces.F2
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

// Streaming ensemble machinery: the bounded-memory alternative to working
// with fully-materialised ensembles. StreamEnsemble emits each sample's
// recorded frames to a consumer as they are produced; the observer
// Accumulator aligns streamed frames straight into per-step datasets; a
// Collector opts back into full-trajectory retention. Pipeline.Run is
// built from exactly these stages.
type (
	// Frame is one recorded frame delivered to a streaming consumer.
	Frame = sim.Frame
	// FrameVisitor consumes streamed frames (possibly concurrently).
	FrameVisitor = sim.FrameVisitor
	// StreamResult describes a completed frame stream.
	StreamResult = sim.StreamResult
	// EnsembleCollector copies streamed frames into an Ensemble.
	EnsembleCollector = sim.Collector
	// ObserverAccumulator builds per-step observer datasets from
	// streamed frames without materialising the ensemble.
	ObserverAccumulator = observer.Accumulator
	// Aligner runs ICP alignments with reusable scratch storage.
	Aligner = align.Aligner
)

var (
	// StreamEnsemble runs all samples and streams their recorded frames.
	StreamEnsemble = sim.StreamEnsemble
	// StreamSamples streams a sub-range of the ensemble's samples.
	StreamSamples = sim.StreamSamples
	// RecordedSteps returns the shared recorded time grid of a run.
	RecordedSteps = sim.RecordedSteps
	// NewEnsembleCollector prepares full-trajectory retention for a
	// stream.
	NewEnsembleCollector = sim.NewCollector
	// NewObserverAccumulator prepares streaming alignment into per-step
	// datasets.
	NewObserverAccumulator = observer.NewAccumulator
)

// Measurement (Secs. 3.1, 5.2, 5.3).
type (
	// Pipeline is a full experiment: simulate → align → estimate.
	Pipeline = experiment.Pipeline
	// Result is a pipeline outcome (MI time series etc.).
	Result = experiment.Result
	// FigureData is a reduced figure: named curves plus notes; Series is
	// one of its curves. Session.Figure and the sweep scenarios return it.
	FigureData = experiment.FigureData
	Series     = experiment.Series
	// Scale bundles ensemble-size presets.
	Scale = experiment.Scale
	// Dataset holds observer-variable samples.
	Dataset = infotheory.Dataset
	// Decomposition is the Eq. (5) split of multi-information.
	Decomposition = infotheory.Decomposition
	// ObserverConfig controls alignment and k-means reduction.
	ObserverConfig = observer.Config
	// Source is a deterministic random source.
	Source = rngx.Source
	// Estimator evaluates a multi-information estimate on a dataset.
	Estimator = infotheory.Estimator
	// EstimatorEngine is the reusable estimator engine: one exact core
	// (internal/knn) answers the nearest-neighbour and range-count
	// queries of the KSG, KL-entropy and kernel estimators with
	// recycled scratch, bit-identical to the brute-force definitions.
	// Pipeline estimation workers each own one; its Workers field
	// (Pipeline.SampleWorkers) fans the samples of a single estimate out
	// across goroutines.
	EstimatorEngine = infotheory.Engine
)

// Estimator kinds accepted by Pipeline.Estimator.
const (
	EstKSGPaper = experiment.EstKSGPaper
	EstKSG1     = experiment.EstKSG1
	EstKSG2     = experiment.EstKSG2
	EstKernel   = experiment.EstKernel
	EstBinned   = experiment.EstBinned
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
	// ApproxEstimate is an approximate-tier result: the estimate, its
	// standard error, and the 95% interval, all in bits.
	ApproxEstimate = infotheory.ApproxEstimate
)

const (
	TierExact  = experiment.TierExact
	TierApprox = experiment.TierApprox
)

// Matrix and force constructors.
var (
	// NewMatrix returns a zero symmetric l×l matrix.
	NewMatrix = forces.NewMatrix
	// ConstantMatrix returns a symmetric matrix filled with c.
	ConstantMatrix = forces.ConstantMatrix
	// MatrixFromRows builds and validates a symmetric matrix.
	MatrixFromRows = forces.MatrixFromRows
	// MustMatrix is MatrixFromRows that panics on error.
	MustMatrix = forces.MustMatrix
	// NewF1 / MustF1 build Eq. (7) interactions.
	NewF1  = forces.NewF1
	MustF1 = forces.MustF1
	// NewF2 / MustF2 build Eq. (8) interactions.
	NewF2  = forces.NewF2
	MustF2 = forces.MustF2
	// RandomF1 / RandomF2 draw the random interactions of the sweep
	// experiments.
	RandomF1 = forces.RandomF1
	RandomF2 = forces.RandomF2
	// RandomMatrixIn draws a symmetric matrix with entries uniform in
	// [lo, hi).
	RandomMatrixIn = forces.RandomMatrix
)

// Simulation helpers.
var (
	// NewSystem creates a simulation with disc-uniform initial positions.
	NewSystem = sim.New
	// NewSystemFromPositions creates a simulation from explicit positions.
	NewSystemFromPositions = sim.NewFromPositions
	// RunEnsemble executes an m-sample ensemble in parallel.
	RunEnsemble = sim.RunEnsemble
	// TypesRoundRobin / TypesBlocks assign particle types.
	TypesRoundRobin = sim.TypesRoundRobin
	TypesBlocks     = sim.TypesBlocks
	// NewRNG returns a deterministic random source.
	NewRNG = rngx.New
	// SplitRNG returns an independent sub-stream of a seed.
	SplitRNG = rngx.Split
)

// Estimators (all return bits).
var (
	// NewInfoDataset allocates an observer-variable dataset with the
	// given per-variable dimensions.
	NewInfoDataset = infotheory.NewDataset
	// NewEstimatorEngine returns an estimator engine with the given
	// within-dataset sample parallelism (0 or 1 = serial).
	NewEstimatorEngine = infotheory.NewEngine
	// MultiInfoKSG is the paper's estimator (Eqs. 18–20).
	MultiInfoKSG = infotheory.MultiInfoKSG
	// MultiInfoKernel is the Gaussian-KDE baseline.
	MultiInfoKernel = infotheory.MultiInfoKernel
	// MultiInfoBinned is the shrinkage-binning baseline.
	MultiInfoBinned = infotheory.MultiInfoBinned
	// Decompose splits multi-information over observer groups (Eq. 5).
	Decompose = infotheory.Decompose
	// GroupsByLabel groups observer variables by label (type).
	GroupsByLabel = infotheory.GroupsByLabel
)

// Scales.
var (
	// PaperScale reproduces the paper's sample sizes.
	PaperScale = experiment.PaperScale
	// QuickScale preserves curve shapes at laptop cost.
	QuickScale = experiment.QuickScale
	// TestScale is for tests and benchmarks.
	TestScale = experiment.TestScale
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
	// ConditionalMutualInfo is the underlying Frenzel–Pompe estimator;
	// ConditionalMutualInfoApprox is its approximate-tier sibling with
	// subsampled evaluation points and error bars.
	ConditionalMutualInfo       = infodynamics.ConditionalMutualInfo
	ConditionalMutualInfoApprox = infodynamics.ConditionalMutualInfoApprox
	// ParticleTrajectories extracts one particle's trajectories from an
	// ensemble.
	ParticleTrajectories = infodynamics.ParticleTrajectories
	// MeasurePairTransfer computes bidirectional TE for a particle pair.
	MeasurePairTransfer = infodynamics.MeasurePairTransfer
	// DifferentialEntropyKL is the Kozachenko–Leonenko entropy
	// estimator; TrackEntropies on a Pipeline records its profile.
	DifferentialEntropyKL = infotheory.DifferentialEntropyKL
)

// Sweep orchestration: batched multi-run experiments under one global
// worker budget, with per-run checkpointing and resume (see DESIGN.md
// "Sweep orchestration").
type (
	// SweepSpec is one run of a sweep: a pipeline plus a unique ID.
	SweepSpec = experiment.SweepSpec
	// Sweeper executes batches of pipeline runs in spec order.
	Sweeper = experiment.Sweeper
	// SerialSweeper is the serial reference implementation.
	SerialSweeper = experiment.SerialSweeper
	// SweepRunner runs specs concurrently under a shared worker budget
	// with optional gob checkpointing; implements Sweeper.
	SweepRunner = sweep.Runner
	// SweepScenario is a named, registry-provided sweep family.
	SweepScenario = sweep.Scenario
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
	// CacheStore fronts any ResultStore with a byte-bounded in-memory
	// LRU; construct with NewCacheStore.
	CacheStore = sweep.CacheStore
	// SweepCoordinator shards one sweep across worker processes;
	// implements Sweeper. Sessions build one via WithWorkerProcs.
	SweepCoordinator = remote.Coordinator
	// SweepWorkerOptions configures ServeSweepWorker.
	SweepWorkerOptions = remote.WorkerOptions
	// SweepSpawnFunc starts one distributed sweep worker; see
	// CommandSpawner and GoSpawner.
	SweepSpawnFunc = remote.SpawnFunc
)

var (
	// NewWorkerBudget allocates a budget of n tokens (0 = GOMAXPROCS).
	NewWorkerBudget = workpool.NewTokens
	// SweepScenarios lists the registered named sweeps; LookupSweepScenario
	// finds one by name.
	SweepScenarios      = sweep.Scenarios
	LookupSweepScenario = sweep.LookupScenario
	// AverageMI runs repeated pipelines through a Sweeper and returns the
	// pointwise-mean MI curve; MeanMICurve / MeanDeltaI are the ordered
	// reducers behind the sweep figures.
	AverageMI   = experiment.AverageMI
	MeanMICurve = experiment.MeanMICurve
	MeanDeltaI  = experiment.MeanDeltaI
	// NewCacheStore fronts a ResultStore with an in-memory LRU of at
	// most maxBytes of result payload.
	NewCacheStore = sweep.NewCacheStore
	// ServeSweepWorker runs the worker side of a distributed sweep: dial
	// the coordinator, execute specs against the shared store, stream
	// progress back (sopsweep -worker calls this).
	ServeSweepWorker = remote.Serve
	// CommandSpawner starts distributed sweep workers as child processes
	// of a binary with a worker mode; GoSpawner runs them as goroutines
	// in this process (tests, benchmarks).
	CommandSpawner = remote.CommandSpawner
	GoSpawner      = remote.GoSpawner
	// SweepWorkerArgs is the canonical argument vector for a
	// sopsweep-style -worker mode, shared so CLI and spawner agree.
	SweepWorkerArgs = remote.WorkerArgs
)

// Statistical complexity (the Sec. 3 alternative measure) and persistence.
type (
	// EpsilonMachine is a reconstructed causal-state machine.
	EpsilonMachine = statcomplex.Machine
	// ComplexityPoint is one window of a symbolic-complexity profile.
	ComplexityPoint = experiment.ComplexityPoint
	// StatComplexOptions configures ε-machine reconstruction.
	StatComplexOptions = statcomplex.Options
)

var (
	// ReconstructMachine builds an ε-machine from symbol sequences.
	ReconstructMachine = statcomplex.Reconstruct
	// SymbolizeDisplacements turns a trajectory into motion symbols.
	SymbolizeDisplacements = statcomplex.SymbolizeDisplacements
	// SymbolicComplexityProfile computes windowed statistical
	// complexity over an ensemble (the Sec. 7.1 diagnostic).
	SymbolicComplexityProfile = experiment.SymbolicComplexityProfile
	// SaveEnsemble / LoadEnsemble persist simulation output to disk.
	SaveEnsemble = sim.SaveEnsemble
	LoadEnsemble = sim.LoadEnsemble
)

// MeasureSelfOrganization runs a full pipeline: simulate the ensemble,
// factor out the shape symmetries, and estimate the multi-information of
// the observer variables at every recorded step. Self-organization in the
// paper's sense (Sec. 3.1) is an increasing Result.MI curve.
//
// The stages run as an overlapped stream with bounded memory: raw
// trajectories are dropped as soon as they are aligned unless
// Pipeline.RetainEnsemble is set, so ensemble sizes far beyond the paper's
// fit in memory. Results are bit-identical for every worker count.
//
// This is the historical entry point, kept as a thin wrapper over
// context.Background() (as are Pipeline.Run and RunEnsemble). New code
// that wants cancellation, a shared worker budget, checkpointing or
// progress events should describe the experiment as a Spec and run it
// through a Session — the numbers are bit-identical either way.
func MeasureSelfOrganization(p Pipeline) (*Result, error) { return p.Run() }
