package remote

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/workpool"
)

// WorkerOptions configures one worker process (or goroutine).
type WorkerOptions struct {
	// Budget is this worker's token budget — its slice of the global
	// budget, handed down by the coordinator at spawn time (<= 0 means
	// GOMAXPROCS, matching workpool.NewTokens).
	Budget int
	// Dir is the shared checkpoint directory; empty disables the store
	// (runs are computed fresh and only returned over the wire).
	Dir string
	// Store overrides Dir with an explicit store (tests exercise
	// counting stores through this; Dir is still swept for stale temps).
	Store sweep.ResultStore

	// dieAfterRuns is a test hook: after sending this many results the
	// worker severs its connection instead of serving the next spec,
	// simulating a worker killed mid-sweep. Zero disables.
	dieAfterRuns int
}

// errWorkerDied marks the test-hook death so Serve's caller can tell it
// from a real failure.
var errWorkerDied = errors.New("remote: worker died (test hook)")

// Serve runs the worker side of the protocol: sweep the checkpoint
// directory for stale temps (a killed sibling's .tmp-run-* remnants must
// be cleaned by whichever process next opens the dir), dial the
// coordinator, then loop — receive a spec frame, run it through a local
// sweep.Runner against the shared store, stream progress back, answer
// with the trimmed result. Every run shares one estimator-engine pool, as
// a Session's runs do, so engine scratch grows once per worker rather
// than once per run. A clean connection close (the coordinator is done)
// returns nil; a frame torn by the coordinator's death is an error;
// cancelling the context severs the connection and returns the
// context's error.
func Serve(ctx context.Context, addr string, opts WorkerOptions) error {
	if opts.Dir != "" {
		if _, err := sweep.RemoveStaleTemps(opts.Dir); err != nil {
			return err
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return fmt.Errorf("remote: worker dial: %w", err)
	}
	defer conn.Close()
	// A blocked frame read does not watch the context; closing the
	// connection from the cancellation path aborts it.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	st := opts.Store
	if st == nil && opts.Dir != "" {
		st = sweep.DirStore{Dir: opts.Dir}
	}
	w := newWire(conn)
	tokens := workpool.NewTokens(opts.Budget)
	engines := infotheory.NewEnginePool()
	served := 0
	for {
		f, err := w.recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) {
				return nil // coordinator closed: sweep is done
			}
			return err
		}
		if f.Type != msgSpec {
			return fmt.Errorf("remote: worker got unexpected frame type %d", f.Type)
		}
		res, fromCkpt, runErr := runOne(ctx, f, st, tokens, engines, w)
		if runErr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err := w.send(&frame{Type: msgError, Index: f.Index, ID: f.ID, Error: runErr.Error()}); err != nil {
				return err
			}
			continue
		}
		served++
		if opts.dieAfterRuns > 0 && served > opts.dieAfterRuns {
			// Test hook: this run is computed and checkpointed, but the
			// answer never leaves — the exact window a crash-requeue
			// must recover from by loading, not recomputing.
			conn.Close()
			return errWorkerDied
		}
		if err := w.send(&frame{Type: msgResult, Index: f.Index, ID: f.ID, Result: toWire(res), FromCheckpoint: fromCkpt}); err != nil {
			return err
		}
	}
}

// runOne executes a single spec frame: rebuild the pipeline from the
// canonical JSON (Parse validates, and the rebuilt pipeline fingerprints
// byte-identically to the coordinator's original — the property the
// shared store keys on), then run it as a one-spec sweep so the full
// checkpoint/trim/progress discipline of the Runner applies unchanged.
func runOne(ctx context.Context, f *frame, st sweep.ResultStore, tokens *workpool.Tokens, engines *infotheory.EnginePool, w *wire) (*experiment.Result, bool, error) {
	sp, err := spec.Parse(f.SpecJSON, fmt.Sprintf("remote spec %q", f.ID))
	if err != nil {
		return nil, false, err
	}
	p, err := sp.Pipeline()
	if err != nil {
		return nil, false, err
	}
	fromCkpt := false
	r := &sweep.Runner{
		Concurrency: 1,
		Tokens:      tokens,
		Store:       st,
		Engines:     engines,
		OnProgress: func(ev experiment.ProgressEvent) {
			switch ev.Kind {
			case experiment.ProgressRunDone:
				// The coordinator emits its own RunDone when the result
				// frame lands, so the merged stream has exactly one; the
				// worker only reports whether its store had the run. A
				// one-spec sweep emits it on this goroutine.
				fromCkpt = ev.FromCheckpoint
				return
			case experiment.ProgressRunCheckpointed:
				// Run-level indices are sweep positions; remap from this
				// one-spec sweep (always 0) to the global sweep index.
				ev.Index = f.Index
			}
			// Best-effort: a torn connection surfaces at the next
			// result/recv, not here.
			_ = w.send(&frame{Type: msgProgress, Event: &ev})
		},
	}
	results, err := r.Sweep(ctx, []experiment.SweepSpec{{ID: f.ID, Pipeline: p}})
	if err != nil {
		return nil, false, err
	}
	return results[0], fromCkpt, nil
}
