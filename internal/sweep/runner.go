// Package sweep orchestrates batches of measurement pipelines — the
// paper's evaluation is mostly sweeps (Fig. 8's type-count grid, the
// Figs. 9/10 radius × type-count families, the Sec. 5.3 estimator
// comparison), each a set of fully independent experiment.Pipeline runs.
//
// The Runner executes such a set concurrently under one global worker
// budget: a shared workpool.Tokens pool that the simulation, alignment
// and estimation workers of every in-flight run draw from, so a sweep of
// small-M runs keeps every core busy while a sweep of huge runs cannot
// oversubscribe the machine. Each run's results are deterministic — the
// per-sample rngx.Split sub-streams and the fixed-order estimator
// reductions make every pipeline bit-identical for any worker count — so
// Runner output is bit-identical to the serial loops for every
// concurrency setting (enforced by the equivalence suite).
//
// With a ResultStore attached (Store), every completed run is persisted
// — one versioned gob file per run under DirStore — and a later Sweep
// over the same specs resumes from the store: an interrupted figure
// regeneration at paper scale loses at most the runs in flight. The
// store is also the seam the remote package distributes over: workers in
// other processes write through the same directory, so re-handing a run
// after a crash is idempotent.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/workpool"
)

// Runner executes sweep specs concurrently. The zero value runs with
// GOMAXPROCS in-flight runs, a fresh GOMAXPROCS-token budget per call,
// and no checkpointing. A Runner is safe for sequential reuse; share one
// Tokens pool explicitly to budget several concurrent Sweep calls
// together.
type Runner struct {
	// Concurrency bounds the number of in-flight pipeline runs
	// (0 = GOMAXPROCS). It is a memory bound — each in-flight run holds
	// its observer datasets — not a CPU bound; CPU is governed by Tokens.
	Concurrency int
	// Tokens is the global worker budget shared by all stages of all
	// in-flight runs; nil allocates a fresh GOMAXPROCS budget per call.
	Tokens *workpool.Tokens
	// Store enables checkpointing: runs are resolved against the store
	// (keyed by spec ID + fingerprint) before being computed, and
	// persisted through it after. Nil disables checkpointing.
	Store ResultStore
	// OnProgress, when non-nil, receives sweep-level progress events
	// (ProgressRunCheckpointed, and one ProgressRunDone per run once it
	// completes or is restored from its checkpoint), and is installed as
	// the per-pipeline progress listener of every run that does not carry
	// its own. May be invoked concurrently; must be cheap and
	// non-blocking.
	OnProgress func(experiment.ProgressEvent)
	// Engines, when non-nil, is a shared estimator-engine pool handed to
	// every run that does not carry its own (a Session does this), so a
	// long sweep recycles engine scratch across runs. Runtime only.
	Engines *infotheory.EnginePool
}

// budget resolves the shared token pool for one call.
func (r *Runner) budget() *workpool.Tokens {
	if r.Tokens != nil {
		return r.Tokens
	}
	return workpool.NewTokens(0)
}

// concurrency resolves the in-flight run bound.
func (r *Runner) concurrency() int {
	if r.Concurrency > 0 {
		return r.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep executes every spec and returns the results in spec order,
// implementing experiment.Sweeper. Failed sweeps keep the checkpoints of
// the runs that did complete, so re-running the same Sweep resumes
// rather than restarts.
//
// Cancelling the context stops the sweep within one token-grant: no new
// run starts, runs in flight abort at their own next grant (and are not
// checkpointed), and the context's error is returned verbatim — runs that
// completed before the cancellation keep their checkpoints, so a
// re-issued Sweep resumes from exactly what finished. A run that fails
// for a reason of its own while the cancellation is in flight is NOT
// absorbed into the context error: the run's error is reported (joined
// with the context's), so worker-side failures always surface.
//
// When checkpointing is enabled, results carry only the persisted fields
// (Times, MI, Decomp, Entropies, Labels, EquilibratedFraction) whether
// they were computed or restored — Observers and the raw Ensemble are
// never part of a sweep result in that mode, keeping fresh and resumed
// sweeps structurally identical.
func (r *Runner) Sweep(ctx context.Context, specs []experiment.SweepSpec) ([]*experiment.Result, error) {
	st := r.Store
	if st != nil {
		if err := CheckUniqueIDs(specs); err != nil {
			return nil, err
		}
	}
	tok := r.budget()
	results := make([]*experiment.Result, len(specs))
	err := workpool.RunCtx(ctx, len(specs), r.concurrency(), nil, func(_, i int) error {
		spec := specs[i]
		fp, fpOK := fingerprint(spec)
		if st != nil && fpOK {
			if res, ok := st.Load(spec.ID, fp); ok {
				results[i] = res
				r.emit(experiment.ProgressEvent{Kind: experiment.ProgressRunDone, Run: spec.ID, Index: i, FromCheckpoint: true})
				return nil
			}
		}
		p := spec.Pipeline
		p.Tokens = tok
		if p.Engines == nil {
			p.Engines = r.Engines
		}
		if p.OnProgress == nil {
			p.OnProgress = r.OnProgress
		}
		res, err := p.RunCtx(ctx)
		if err != nil {
			return runError(ctx, spec.ID, err)
		}
		if st != nil {
			res = trimResult(res)
			if fpOK {
				if err := st.Save(spec.ID, fp, res); err != nil {
					return fmt.Errorf("sweep run %q: %w", spec.ID, err)
				}
				r.emit(experiment.ProgressEvent{Kind: experiment.ProgressRunCheckpointed, Run: spec.ID, Index: i})
			}
		}
		results[i] = res
		r.emit(experiment.ProgressEvent{Kind: experiment.ProgressRunDone, Run: spec.ID, Index: i})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runError reports a failed run without masking it behind a concurrent
// cancellation. A pure cancellation — the run aborted only because the
// context was cancelled — returns the context's error verbatim,
// preserving the Sweep cancellation contract. A run that failed for a
// reason of its own is wrapped with its spec ID, and joined with the
// context's error when a cancellation raced it, so both remain matchable
// with errors.Is and the real failure survives into the coordinator log.
func runError(ctx context.Context, id string, err error) error {
	cancelled := ctx.Err()
	if cancelled != nil && errors.Is(err, cancelled) {
		return cancelled
	}
	wrapped := fmt.Errorf("sweep run %q: %w", id, err)
	if cancelled != nil {
		return errors.Join(wrapped, cancelled)
	}
	return wrapped
}

// emit dispatches a sweep-level progress event if a listener is attached.
func (r *Runner) emit(ev experiment.ProgressEvent) {
	if r.OnProgress != nil {
		r.OnProgress(ev)
	}
}

// trimResult strips the fields checkpoints do not persist, so computed
// and restored results are indistinguishable.
func trimResult(res *experiment.Result) *experiment.Result {
	t := *res
	t.Observers = nil
	t.Ensemble = nil
	return &t
}

// compile-time check: Runner implements the driver-facing interface.
var _ experiment.Sweeper = (*Runner)(nil)
