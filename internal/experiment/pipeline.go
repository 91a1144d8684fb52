// Package experiment orchestrates the paper's full measurement pipeline —
// simulate an ensemble (Sec. 5.1), factor out the shape symmetries
// (Sec. 5.2), estimate multi-information per time step (Sec. 5.3) — and
// provides one driver per figure of the evaluation section (Figs. 1–12)
// plus the estimator-comparison study of Sec. 5.3.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/infotheory"
	"repro/internal/observer"
	"repro/internal/sim"
	"repro/internal/workpool"
)

// EstimatorKind names a multi-information estimator.
type EstimatorKind string

const (
	// EstKSGPaper is the estimator exactly as printed in the paper,
	// Eqs. (18)–(20). The printed formula omits the −(n−1)/k correction
	// of Kraskov's algorithm 2 and is therefore strongly positively
	// biased for many variables (≈ (n−1)/k nats); it is provided for
	// the fidelity ablation, not as the default — see
	// BenchmarkAblationKSGVariants and EXPERIMENTS.md.
	EstKSGPaper EstimatorKind = "ksg-paper"
	// EstKSG1 and EstKSG2 are Kraskov et al.'s standard algorithms.
	// KSG2 is the default: it is the corrected form of the paper's
	// Eq. (18) and reproduces the paper's curve shapes (MI ≈ 0 for the
	// i.i.d. initial state, rising as the collective organises).
	EstKSG1 EstimatorKind = "ksg1"
	EstKSG2 EstimatorKind = "ksg2"
	// EstKernel is the Gaussian KDE baseline.
	EstKernel EstimatorKind = "kernel"
	// EstBinned is the James–Stein shrinkage binning baseline.
	EstBinned EstimatorKind = "binned"
)

// DefaultKSGK is the k of the k-NN estimator: the paper states k = 4 for
// the experiment section (Sec. 6) and reports insensitivity over 2–10.
const DefaultKSGK = 4

// EstimatorTier selects between the exact estimator path and the
// subsampled approximate tier.
type EstimatorTier string

const (
	// TierExact is the default: every sample is an evaluation point and
	// estimates are bit-identical to the brute-force references. The
	// empty tier means exact, so zero-valued pipelines (and specs written
	// before the tier existed) are unchanged.
	TierExact EstimatorTier = "exact"
	// TierApprox evaluates the KSG sum at Subsample points drawn
	// deterministically from (Ensemble.Seed, step index), with neighbour
	// searches and marginal counts still over all M samples, and reports
	// a finite-population-corrected standard error per step in
	// Result.MIStdErr. KSG kinds only.
	TierApprox EstimatorTier = "approx"
)

// Pipeline is a complete experiment specification. Every field reachable
// from it keys spec.PipelineFingerprint, except the runtime-only ones on
// the exclusion list of spec's TestFingerprintCoversEveryLeaf.
type Pipeline struct {
	// Name labels the experiment in records and plots.
	Name string
	// Ensemble configures the simulation stage.
	Ensemble sim.EnsembleConfig
	// Observer configures alignment and the optional k-means reduction.
	Observer observer.Config
	// Estimator selects the multi-information estimator (default:
	// the paper's KSG formulation).
	Estimator EstimatorKind
	// K is the k-NN parameter for the KSG estimators (default 4).
	K int
	// Bins is the per-dimension bin count for the binned estimator
	// (default 8).
	Bins int
	// Tier selects the estimator tier: TierExact (or empty, the default)
	// or TierApprox. The approximate tier requires a KSG estimator kind
	// and a Subsample budget.
	Tier EstimatorTier
	// Subsample is the approximate tier's per-step evaluation budget r:
	// each step's KSG sum is averaged over r deterministically drawn
	// samples instead of all M (1 ≤ r < M). Ignored on the exact tier.
	Subsample int
	// Decompose additionally evaluates the per-type decomposition
	// (Eq. 5) at every recorded step.
	Decompose bool
	// TrackEntropies additionally records the Kozachenko–Leonenko joint
	// and marginal-sum entropies per step — the Sec. 6 / Fig. 4
	// narrative ("the overall entropy decreases even faster than the
	// marginal entropies") made measurable.
	TrackEntropies bool
	// Workers bounds the per-time-step estimation parallelism;
	// 0 means GOMAXPROCS. Simulation-stage parallelism is bounded
	// separately by Ensemble.Workers; alignment runs inline on the
	// simulation workers.
	Workers int
	// SampleWorkers bounds the within-step sample parallelism of the
	// tree-engine estimators: each estimation worker partitions one
	// step's samples across this many goroutines, so a single huge-m
	// step no longer serialises on one core. 0 or 1 keeps within-step
	// estimation serial (allocation-free in steady state). Estimates are
	// bit-identical for every setting; at peak Workers × SampleWorkers
	// goroutines estimate concurrently.
	SampleWorkers int
	// RetainEnsemble keeps the raw trajectories in Result.Ensemble (for
	// snapshot figures and trajectory analyses). Off by default: the
	// streaming pipeline then never materialises the ensemble, so peak
	// memory is the per-step observer datasets alone.
	RetainEnsemble bool
	// Tokens, when non-nil, is a shared execution budget all of this
	// pipeline's stage workers draw from: each simulated sample and each
	// estimated step holds one token while active. Several concurrently
	// running pipelines handed the same budget (sweep.Runner does this)
	// then share one machine-wide worker pool instead of each assuming
	// the whole machine. Results never depend on it.
	Tokens *workpool.Tokens
	// Engines, when non-nil, recycles estimator engines across pipeline
	// runs (a Session hands every pipeline its pool). Runtime only;
	// results never depend on it.
	Engines *infotheory.EnginePool
	// OnProgress, when non-nil, receives progress events as the run
	// advances: one ProgressSampleSimulated per completed sample (on the
	// streaming path) and one ProgressStepEstimated per estimated step.
	// It may be invoked concurrently from several workers and must be
	// cheap and non-blocking. Runtime only; results never depend on it.
	OnProgress func(ProgressEvent)
}

// ProgressKind classifies a pipeline or sweep progress event.
type ProgressKind int

const (
	// ProgressSampleSimulated: one ensemble sample finished simulating
	// (streaming path; Index is the sample index).
	ProgressSampleSimulated ProgressKind = iota
	// ProgressStepEstimated: one recorded step's multi-information was
	// estimated (Index is the step's position on the time grid).
	ProgressStepEstimated
	// ProgressRunDone: one sweep run completed — computed or restored
	// from its checkpoint (Index is the run's position in the sweep).
	ProgressRunDone
)

// ProgressEvent is one unit of observable pipeline progress. Events carry
// identity (which run) and position (which sample/step/run), not payloads:
// results are returned, never streamed.
type ProgressEvent struct {
	Kind ProgressKind
	// Run labels the emitting run: the Pipeline.Name, or the sweep run
	// ID for sweep-level events.
	Run string
	// Index is the sample, step, or run index, per Kind.
	Index int
	// FromCheckpoint marks a ProgressRunDone that was restored from disk
	// rather than computed.
	FromCheckpoint bool
}

// emit dispatches a progress event if a listener is attached.
func (p Pipeline) emit(ev ProgressEvent) {
	if p.OnProgress != nil {
		ev.Run = p.Name
		p.OnProgress(ev)
	}
}

// Result is the outcome of a pipeline run.
type Result struct {
	Name string
	// Times are the recorded step indices.
	Times []int
	// MI[t] is the estimated multi-information (bits) at Times[t].
	MI []float64
	// MIStdErr[t] is the standard error of MI[t] from the subsampled
	// evaluation (bits); nil unless the pipeline ran on TierApprox. The
	// 95% interval is MI[t] ± 1.96·MIStdErr[t].
	MIStdErr []float64
	// Decomp[t] is the per-type decomposition at Times[t]; nil unless
	// Pipeline.Decompose was set.
	Decomp []infotheory.Decomposition
	// Entropies[t] is the joint/marginal entropy profile at Times[t];
	// nil unless Pipeline.TrackEntropies was set.
	Entropies []infotheory.EntropyProfile
	// Labels[v] is the type label of observer variable v.
	Labels []int
	// EquilibratedFraction is the fraction of ensemble samples that met
	// the equilibrium criterion during their run.
	EquilibratedFraction float64
	// Ensemble is the raw simulation output (for snapshot figures);
	// nil unless Pipeline.RetainEnsemble was set.
	Ensemble *sim.Ensemble
	// Observers holds the aligned per-step datasets.
	Observers *observer.Observers
}

// DeltaI returns I(t_final) − I(t_0), the self-organisation increase the
// paper reports in Fig. 8.
func (r *Result) DeltaI() float64 {
	if len(r.MI) == 0 {
		return 0
	}
	return r.MI[len(r.MI)-1] - r.MI[0]
}

// FinalMI returns the last multi-information estimate.
func (r *Result) FinalMI() float64 {
	if len(r.MI) == 0 {
		return 0
	}
	return r.MI[len(r.MI)-1]
}

// estimatorFor builds the per-step estimator closure bound to one
// worker's tree engine; k is the effective k-NN parameter from
// effectiveK, so validation and estimation can never disagree about its
// value. With a nil engine it only validates the estimator kind (the
// returned closure must not be called).
func (p Pipeline) estimatorFor(k int, eng *infotheory.Engine) (infotheory.Estimator, error) {
	return NewEstimator(p.Estimator, k, p.Bins, eng)
}

// effectiveK returns the k actually used by the KSG machinery (the
// explicit K or the paper's default), and whether this pipeline evaluates a
// k-NN estimate at all.
func (p Pipeline) effectiveK() (k int, used bool) {
	k = p.K
	if k == 0 {
		k = DefaultKSGK
	}
	return k, p.Estimator.UsesKNN() || p.TrackEntropies
}

// Run executes the full pipeline as a staged stream: ensemble simulation,
// per-frame alignment/reduction, and per-recorded-step multi-information
// estimation overlap on bounded worker budgets (Ensemble.Workers for
// simulation+alignment, Workers for estimation). The alignment-reference
// sample runs first; every other sample's frames are then aligned as they
// are produced and written straight into the per-step observer datasets,
// and a step is estimated as soon as its dataset holds all M samples. The
// raw ensemble is never materialised unless RetainEnsemble is set, so peak
// memory stays at one dataset transcript regardless of M×Steps. Results
// are bit-identical to the fully-batched path for every worker count.
//
// The medoid alignment reference needs all samples of a frame at once and
// therefore falls back to the batch path transparently.
//
// Run is RunCtx under context.Background(): the uncancellable entry point,
// kept source-compatible for existing callers and bit-identical to the
// pre-context pipeline.
func (p Pipeline) Run() (*Result, error) { return p.RunCtx(context.Background()) }

// RunCtx is Run under a context. Cancellation stops every stage within one
// token-grant — a simulated sample, an aligned frame or an estimated step
// in flight completes, nothing further starts — and returns the context's
// error (match with errors.Is(err, context.Canceled)). A cancelled run
// returns no partial Result. Results are bit-identical to Run whenever the
// context is never cancelled.
func (p Pipeline) RunCtx(ctx context.Context) (*Result, error) {
	effK, usesK := p.effectiveK()
	if p.Ensemble.M > 0 {
		// The guard must apply to the defaulted k too: K=0 means k=4,
		// which is just as invalid for M ≤ 4 as an explicit K would be.
		if usesK && effK >= p.Ensemble.M {
			return nil, fmt.Errorf("experiment: KSG k (%d) must be smaller than the ensemble size M (%d)", effK, p.Ensemble.M)
		}
		if !usesK && p.K >= p.Ensemble.M && p.K > 0 {
			return nil, fmt.Errorf("experiment: K (%d) must be smaller than the ensemble size M (%d)", p.K, p.Ensemble.M)
		}
	}
	// Validate the estimator kind once up front; the per-step closures
	// are built per estimation worker, each bound to its own engine.
	if _, err := p.estimatorFor(effK, nil); err != nil {
		return nil, err
	}
	switch p.Tier {
	case "", TierExact:
		if p.Subsample != 0 {
			return nil, fmt.Errorf("experiment: Subsample (%d) is only meaningful on the approximate tier", p.Subsample)
		}
	case TierApprox:
		if _, ok := p.Estimator.KSGVariant(); !ok {
			return nil, fmt.Errorf("experiment: the approximate tier requires a KSG estimator kind, have %q", p.Estimator)
		}
		if p.Subsample < 1 || (p.Ensemble.M > 0 && p.Subsample >= p.Ensemble.M) {
			return nil, fmt.Errorf("experiment: approximate tier needs 1 <= Subsample (%d) < M (%d)", p.Subsample, p.Ensemble.M)
		}
	default:
		return nil, fmt.Errorf("experiment: unknown estimator tier %q (valid tiers: exact, approx)", p.Tier)
	}
	// The shared budget (if any) gates the simulation workers too.
	p.Ensemble.Tokens = p.Tokens
	if !p.Observer.Streamable() {
		return p.runBatch(ctx, effK)
	}
	return p.runStreamed(ctx, effK)
}

// runStreamed is the streaming pipeline behind Run.
func (p Pipeline) runStreamed(ctx context.Context, effK int) (*Result, error) {
	ec, err := p.Ensemble.Normalized()
	if err != nil {
		return nil, fmt.Errorf("experiment %q: simulate: %w", p.Name, err)
	}
	times := sim.RecordedSteps(ec.Steps, ec.RecordEvery)
	acc, err := observer.NewAccumulator(ec.M, times, ec.Sim.Types, p.Observer)
	if err != nil {
		return nil, fmt.Errorf("experiment %q: observers: %w", p.Name, err)
	}
	// Completed steps flow to the estimation stage through ready; the
	// buffer covers the whole grid so completions never block alignment.
	ready := make(chan int, len(times))
	acc.OnStepComplete = func(t int) { ready <- t }

	var col *sim.Collector
	if p.RetainEnsemble {
		if col, err = sim.NewCollector(ec); err != nil {
			return nil, fmt.Errorf("experiment %q: simulate: %w", p.Name, err)
		}
	}
	var eqCount atomic.Int64
	track := func(f sim.Frame) error {
		if col != nil {
			if err := col.Visit(f); err != nil {
				return err
			}
		}
		if f.Final {
			if f.Equilibrated {
				eqCount.Add(1)
			}
			p.emit(ProgressEvent{Kind: ProgressSampleSimulated, Index: f.Sample})
		}
		return nil
	}

	// Stage 1: the alignment-reference sample (sample 0) runs to
	// completion, establishing the per-step references and the k-means
	// anchor. It costs 1/M of the simulation budget.
	_, err = sim.StreamSamplesCtx(ctx, ec, 0, 1, func(f sim.Frame) error {
		if err := track(f); err != nil {
			return err
		}
		return acc.SeedReference(f.Index, f.Pos)
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("experiment %q: simulate: %w", p.Name, err)
	}
	if err := acc.FinishReference(); err != nil {
		return nil, fmt.Errorf("experiment %q: observers: %w", p.Name, err)
	}

	res := &Result{
		Name:   p.Name,
		Times:  append([]int(nil), times...),
		MI:     make([]float64, len(times)),
		Labels: acc.Labels(),
	}
	if p.Tier == TierApprox {
		res.MIStdErr = make([]float64, len(times))
	}
	if p.Decompose {
		res.Decomp = make([]infotheory.Decomposition, len(times))
	}
	if p.TrackEntropies {
		res.Entropies = make([]infotheory.EntropyProfile, len(times))
	}

	// Stage 3 starts before stage 2 so estimation overlaps simulation.
	estWait := p.startEstimators(ctx, res, acc.Datasets(), infotheory.GroupsByLabel(acc.Labels()), effK, ready)

	// Stage 2: the remaining samples stream through inline alignment.
	_, simErr := sim.StreamSamplesCtx(ctx, ec, 1, ec.M, func(f sim.Frame) error {
		if err := track(f); err != nil {
			return err
		}
		return acc.Add(f.Sample, f.Index, f.Pos)
	})
	close(ready) // all Add calls have returned: no sends can follow
	estErr := estWait()
	if simErr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("experiment %q: %w", p.Name, simErr)
	}
	if estErr != nil {
		return nil, estErr
	}

	res.Observers = acc.Observers()
	res.EquilibratedFraction = float64(eqCount.Load()) / float64(ec.M)
	if col != nil {
		res.Ensemble = col.Ensemble()
	}
	return res, nil
}

// runBatch materialises the full ensemble and an aligned copy before
// estimating — required by the medoid alignment reference, and kept as the
// reference implementation the streaming path is tested against.
func (p Pipeline) runBatch(ctx context.Context, effK int) (*Result, error) {
	ens, err := sim.RunEnsembleCtx(ctx, p.Ensemble)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("experiment %q: simulate: %w", p.Name, err)
	}
	obs, err := observer.FromEnsembleCtx(ctx, ens, p.Observer)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("experiment %q: observers: %w", p.Name, err)
	}

	res := &Result{
		Name:      p.Name,
		Times:     obs.Times,
		MI:        make([]float64, len(obs.Times)),
		Labels:    obs.Labels,
		Observers: obs,
	}
	if p.RetainEnsemble {
		res.Ensemble = ens
	}
	if p.Tier == TierApprox {
		res.MIStdErr = make([]float64, len(obs.Times))
	}
	if p.Decompose {
		res.Decomp = make([]infotheory.Decomposition, len(obs.Times))
	}
	if p.TrackEntropies {
		res.Entropies = make([]infotheory.EntropyProfile, len(obs.Times))
	}
	eq := 0
	for _, e := range ens.Equilibrated {
		if e {
			eq++
		}
	}
	res.EquilibratedFraction = float64(eq) / float64(len(ens.Equilibrated))

	ready := make(chan int, len(obs.Times))
	for t := range obs.Times {
		ready <- t
	}
	close(ready)
	if err := p.startEstimators(ctx, res, obs.Datasets, obs.Groups(), effK, ready)(); err != nil {
		return nil, err
	}
	return res, nil
}

// startEstimators launches the estimation stage: workers consume completed
// step indices from ready until it closes, writing MI (and optionally the
// decomposition and entropy profiles) into disjoint slots of res. Each
// worker owns one tree engine — its k-d trees and scratch stores are
// recycled across the steps it consumes (and across runs, when a Session
// engine pool is attached) — and fans one step's samples out across
// SampleWorkers goroutines. The returned wait function blocks until every
// worker exits and reports the first error (context cancellation is the
// only error source; estimation itself cannot fail).
func (p Pipeline) startEstimators(ctx context.Context, res *Result, datasets []*infotheory.Dataset, groups [][]int, effK int, ready <-chan int) func() error {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(datasets) {
		workers = len(datasets)
	}
	wg := &sync.WaitGroup{}
	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	variant, _ := p.Estimator.KSGVariant()
	approx := p.Tier == TierApprox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := p.Engines.Get(p.SampleWorkers)
			defer p.Engines.Put(eng)
			// The kind was validated in Run; the error is impossible here.
			est, _ := p.estimatorFor(effK, eng)
			for t := range ready {
				// One shared-budget token per estimated step; waiting on
				// `ready` holds none, so sim workers are never starved.
				if err := p.Tokens.AcquireCtx(ctx); err != nil {
					setErr(err)
					return
				}
				if approx {
					// The subsample draw is keyed by (master seed, step
					// index) alone — which worker serves the step, and in
					// what order, can never change the result. Decompose's
					// group terms reuse the step's key: each term then
					// evaluates the same sample subset, so the subtraction
					// cancels draw noise instead of adding it.
					opts := infotheory.ApproxOptions{
						Subsample: p.Subsample,
						Seed:      p.Ensemble.Seed,
						Sequence:  uint64(t),
					}
					ae := eng.MultiInfoKSGApprox(datasets[t], effK, variant, opts)
					res.MI[t] = ae.MI
					res.MIStdErr[t] = ae.StdErr
					if p.Decompose {
						est = func(d *infotheory.Dataset) float64 {
							return eng.MultiInfoKSGApprox(d, effK, variant, opts).MI
						}
					}
				} else {
					res.MI[t] = est(datasets[t])
				}
				if p.Decompose {
					res.Decomp[t] = infotheory.Decompose(datasets[t], groups, est)
				}
				if p.TrackEntropies {
					res.Entropies[t] = eng.Entropies(datasets[t], effK)
				}
				p.Tokens.Release()
				p.emit(ProgressEvent{Kind: ProgressStepEstimated, Index: t})
			}
		}()
	}
	return func() error {
		wg.Wait()
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}
}

// Scale bundles the ensemble-size knobs so every figure driver can run at
// paper scale or at a reduced laptop/CI scale with one switch.
type Scale struct {
	// M is the ensemble size (paper: 500–1000).
	M int
	// Steps is t_max (paper: 100–250).
	Steps int
	// RecordEvery controls the time resolution of the MI curves.
	RecordEvery int
	// Repeats is the number of random type-matrix draws averaged in the
	// sweep figures (paper: 10).
	Repeats int
}

// PaperScale reproduces the paper's sample sizes. Expect hours of CPU for
// the sweep figures.
func PaperScale() Scale { return Scale{M: 500, Steps: 250, RecordEvery: 5, Repeats: 10} }

// QuickScale is the default for the CLI: the same experiments with a
// smaller ensemble; curve shapes are preserved, absolute values carry more
// estimator bias. Below M ≈ 100 samples the KSG estimate of a 50-particle
// system degrades visibly; 128 is the practical floor for shape-faithful
// curves.
func QuickScale() Scale { return Scale{M: 128, Steps: 250, RecordEvery: 25, Repeats: 4} }

// TestScale is a minimal setting for unit tests and benchmarks.
func TestScale() Scale { return Scale{M: 32, Steps: 40, RecordEvery: 20, Repeats: 2} }
