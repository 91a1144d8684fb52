package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/experiment"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// SpawnFunc starts worker i against the coordinator at addr with its
// slice of the token budget, returning a wait function that blocks until
// the worker exits. The context is cancelled when the sweep fails or its
// caller cancels it, and that must bring the worker down; a sweep that
// succeeds closes the worker's connection instead. Sweep returns only
// after every wait has.
type SpawnFunc func(ctx context.Context, i int, addr string, budget int) (wait func() error, err error)

// Coordinator shards sweeps across worker processes, implementing
// experiment.Sweeper: drivers hand it the same spec lists they hand a
// Runner and get bit-identical results back — every run is deterministic
// and store-keyed, so which process computes it cannot matter.
//
// Scheduling is pull-based: each connected worker holds at most one spec
// at a time and is handed the next only after answering, so fast workers
// take more of the queue and a slow run cannot convoy others. A worker
// that dies mid-run (lost connection, killed child) has its spec
// requeued to the remaining workers; if it managed to checkpoint through
// the shared store first, the retry loads instead of recomputes.
type Coordinator struct {
	// Procs is the number of workers to spawn (<= 1 means one), capped
	// at the budget so that every worker holds at least one token.
	Procs int
	// Budget is the global token budget divided among workers
	// (<= 0 means GOMAXPROCS), so N children on one box stay within the
	// budget one process would have used.
	Budget int
	// Spawn starts the workers; required. See CommandSpawner and
	// GoSpawner.
	Spawn SpawnFunc
	// Store, when non-nil, resolves runs before any worker is consulted,
	// so a fully checkpointed sweep completes without spawning. Workers
	// reach the same durable store through their own configuration (the
	// shared directory), not through this handle.
	Store sweep.ResultStore
	// OnProgress, when non-nil, receives the merged progress stream:
	// every worker's pipeline events plus one ProgressRunDone per run,
	// emitted by the coordinator as results land. May be invoked
	// concurrently, like Runner.OnProgress.
	OnProgress func(experiment.ProgressEvent)
}

// sweepState is the shared bookkeeping of one Sweep call.
type sweepState struct {
	queue chan int // sweep indices awaiting a worker

	mu          sync.Mutex
	outstanding int
	err         error
	finished    chan struct{} // closed once: success or first failure
	conns       []net.Conn
}

func (s *sweepState) complete() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outstanding--
	if s.outstanding == 0 && s.err == nil {
		close(s.finished)
	}
}

// fail aborts the sweep with err unless it already failed or every run
// completed: a sweep finishes once, and a failure that arrives after the
// last result (a cancellation racing it, or the workers exiting at
// teardown) leaves it finished.
func (s *sweepState) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outstanding > 0 && s.err == nil {
		s.err = err
		close(s.finished)
	}
}

// failed returns the error the sweep failed with, if it did.
func (s *sweepState) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *sweepState) addConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns = append(s.conns, c)
}

func (s *sweepState) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

func (c *Coordinator) emit(ev experiment.ProgressEvent) {
	if c.OnProgress != nil {
		c.OnProgress(ev)
	}
}

// split returns the token budget of each worker to spawn: Procs workers
// (at least one) but never more than the budget has tokens, each holding
// an equal share and the first budget mod workers one token more, so the
// workers together hold exactly the budget.
func (c *Coordinator) split() []int {
	budget := c.Budget
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	workers := min(max(c.Procs, 1), budget)
	budgets := make([]int, workers)
	for i := range budgets {
		budgets[i] = budget / workers
		if i < budget%workers {
			budgets[i]++
		}
	}
	return budgets
}

// Sweep distributes the specs across worker processes and returns the
// results in spec order. The contract is Runner.Sweep's: bit-identical
// results, checkpoints of completed runs survive failures, cancellation
// returns the context's error verbatim. Every worker it spawned has
// exited when it returns, so none writes to the store afterwards.
func (c *Coordinator) Sweep(ctx context.Context, specs []experiment.SweepSpec) ([]*experiment.Result, error) {
	if c.Spawn == nil {
		return nil, errors.New("remote: Coordinator requires a Spawn function")
	}
	if err := sweep.CheckUniqueIDs(specs); err != nil {
		return nil, err
	}
	results := make([]*experiment.Result, len(specs))

	// Resolve what the store already has and serialize the rest: every
	// other run crosses to a worker as its canonical spec JSON, so a
	// pipeline with no spec form (a custom Scaling) fails the sweep
	// before any worker is spawned.
	var pending []int
	wireSpecs := make([][]byte, len(specs))
	for i, ss := range specs {
		if c.Store != nil {
			if fp, ok := spec.PipelineFingerprint(ss.ID, ss.Pipeline); ok {
				if res, hit := c.Store.Load(ss.ID, fp); hit {
					results[i] = res
					c.emit(experiment.ProgressEvent{Kind: experiment.ProgressRunDone, Run: ss.ID, Index: i, FromCheckpoint: true})
					continue
				}
			}
		}
		sp, err := spec.FromPipeline(ss.Pipeline)
		if err != nil {
			return nil, fmt.Errorf("remote: sweep run %q cannot cross to a worker: %w", ss.ID, err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, fmt.Errorf("remote: sweep run %q: %w", ss.ID, err)
		}
		wireSpecs[i] = b
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results, nil // fully resolved from the store
	}

	st := &sweepState{
		queue:       make(chan int, len(pending)),
		finished:    make(chan struct{}),
		outstanding: len(pending),
	}
	for _, i := range pending {
		st.queue <- i
	}

	ln, addr, cleanup, err := listen()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var handlers sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		// handlers.Add happens only here; teardown waits for this loop to
		// stop before handlers.Wait, so Add can never race a Wait that
		// already saw zero.
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: teardown
			}
			st.addConn(conn)
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				c.handle(conn, st, specs, wireSpecs, results)
			}()
		}
	}()

	// The workers run under a context of their own, cancelled only when
	// the sweep fails. A sweep that succeeds closes their connections
	// and waits for them to exit on their own: cancelling would kill a
	// process worker before it exits cleanly.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var dead sync.WaitGroup
	for i, per := range c.split() {
		wait, err := c.Spawn(wctx, i, addr, per)
		if err != nil {
			st.fail(fmt.Errorf("remote: spawning worker %d: %w", i, err))
			break
		}
		dead.Add(1)
		go func() {
			defer dead.Done()
			_ = wait()
		}()
	}
	go func() {
		// Every worker exiting with runs still outstanding means no one
		// is left to requeue to: fail instead of hanging. When
		// cancellation is what killed the workers, the context's error is
		// the cause and comes back verbatim — this watcher races the main
		// select's st.fail(ctx.Err()) and must not mask it.
		dead.Wait()
		if err := ctx.Err(); err != nil {
			st.fail(err)
			return
		}
		st.fail(errors.New("remote: all workers exited with runs outstanding"))
	}()

	select {
	case <-st.finished:
	case <-ctx.Done():
		st.fail(ctx.Err())
	}
	// Teardown: stop a failed sweep's workers, stop accepting, sever
	// every worker so in-flight handlers unblock, then wait for the
	// handlers and the workers — no handler may touch the results slice,
	// and no worker may write a checkpoint, after Sweep returns.
	err = st.failed()
	if err != nil {
		cancel()
	}
	ln.Close()
	<-acceptDone
	st.closeConns()
	handlers.Wait()
	dead.Wait()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// listen opens the coordinator socket: a unix socket in a fresh temp
// directory, which cleanup removes.
func listen() (net.Listener, string, func(), error) {
	dir, err := os.MkdirTemp("", "sops-dist-")
	if err != nil {
		return nil, "", nil, fmt.Errorf("remote: listen: %w", err)
	}
	addr := filepath.Join(dir, "coord.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	return ln, addr, func() { os.RemoveAll(dir) }, nil
}

// handle serves one worker connection: pull an index, hand the spec
// over, pump progress until the result (or the worker's death, which
// requeues the index for someone else).
func (c *Coordinator) handle(conn net.Conn, st *sweepState, specs []experiment.SweepSpec, wireSpecs [][]byte, results []*experiment.Result) {
	defer conn.Close()
	w := newWire(conn)
	for {
		select {
		case <-st.finished:
			return
		case idx := <-st.queue:
			if !c.runRemote(w, idx, st, specs, wireSpecs, results) {
				// The connection is dead; the run is requeued for the
				// surviving workers (the queue is sized for every pending
				// run, so this never blocks).
				st.queue <- idx
				return
			}
		}
	}
}

// runRemote drives one run on one worker. It returns false when the
// connection broke or the worker broke the protocol — the caller
// requeues and drops the connection — and true when the exchange
// finished, successfully or not (a worker-side run failure aborts the
// whole sweep, matching Runner.Sweep's first-error contract).
func (c *Coordinator) runRemote(w *wire, idx int, st *sweepState, specs []experiment.SweepSpec, wireSpecs [][]byte, results []*experiment.Result) bool {
	if err := w.send(&frame{Type: msgSpec, Index: idx, ID: specs[idx].ID, SpecJSON: wireSpecs[idx]}); err != nil {
		return false
	}
	for {
		f, err := w.recv()
		if err != nil {
			return false
		}
		switch f.Type {
		case msgProgress:
			if f.Event != nil {
				c.emit(*f.Event)
			}
		case msgResult:
			if f.Result == nil {
				return false // a result with no payload: a protocol violation
			}
			results[idx] = fromWire(f.Result)
			c.emit(experiment.ProgressEvent{Kind: experiment.ProgressRunDone, Run: specs[idx].ID, Index: idx, FromCheckpoint: f.FromCheckpoint})
			st.complete()
			return true
		case msgError:
			st.fail(fmt.Errorf("remote: sweep run %q: %s", specs[idx].ID, f.Error))
			return true
		default:
			return false
		}
	}
}

// compile-time check: Coordinator implements the driver-facing interface.
var _ experiment.Sweeper = (*Coordinator)(nil)
