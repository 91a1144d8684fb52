// Package workpool provides the one worker-pool idiom the pipeline stages
// share: distribute items over a bounded set of goroutines, stop handing
// out work on the first error, and never strand the producer.
//
// The drain contract matters: a naive pool whose workers return on error
// leaves the producer blocked forever on an unbuffered send once every
// worker has exited — the exact deadlock the pre-streaming ensemble runner
// shipped. Centralising the select-on-done producer here keeps the fix in
// one place for every stage (simulation, alignment, estimation feeds).
package workpool

import (
	"context"
	"runtime"
	"sync"
)

// Tokens is a shared concurrency budget: a fixed pool of execution tokens
// that any number of worker pools (across any number of concurrently
// running pipelines) draw from. A worker holds one token for the duration
// of one work item and returns it between items, so a global budget of B
// tokens bounds the machine-wide active work at B items regardless of how
// many pools are in flight — small jobs cannot leave cores idle, and big
// fan-outs cannot oversubscribe.
//
// A nil *Tokens is a valid no-op budget (Acquire/Release do nothing), so
// budget support can be threaded through APIs without burdening callers
// that do not use it. Tokens carries no fairness guarantee beyond the
// runtime's channel scheduling; holders must always complete their item
// without acquiring further tokens, which keeps the pool deadlock-free by
// construction.
type Tokens struct {
	ch chan struct{}
}

// NewTokens returns a budget of n tokens; n <= 0 means GOMAXPROCS.
func NewTokens(n int) *Tokens {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Tokens{ch: make(chan struct{}, n)}
}

// Cap returns the budget size. A nil budget reports 0 (unlimited).
func (t *Tokens) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.ch)
}

// Acquire takes one token, blocking until one is free. No-op on nil.
func (t *Tokens) Acquire() {
	if t != nil {
		t.ch <- struct{}{}
	}
}

// AcquireCtx takes one token, blocking until one is free or the context is
// cancelled, in which case no token is held and the context's error is
// returned. This is the cancellation point of every budgeted stage: a
// cancelled pipeline stops within one token-grant — in-flight work items
// complete, no new item starts.
func (t *Tokens) AcquireCtx(ctx context.Context) error {
	if t == nil {
		// Honour cancellation even without a budget, so unbudgeted
		// pools stop handing out work just as promptly.
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	select {
	case t.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a token taken by Acquire. No-op on nil.
func (t *Tokens) Release() {
	if t != nil {
		<-t.ch
	}
}

// Run executes fn(i) for every i in [0, n) on up to `workers` goroutines
// (at least 1; capped at n). If any call returns an error, no further
// items are handed out, in-flight calls finish, and the first error is
// returned. fn must be safe for concurrent invocation on distinct items.
func Run(n, workers int, fn func(i int) error) error {
	return RunCtx(context.Background(), n, workers, nil, func(_, i int) error { return fn(i) })
}

// RunCtx is Run under a shared token budget and a context. Each work
// item is processed while holding one token from tok (nil tok waives the
// budget), and fn additionally receives the dense worker slot index in
// [0, min(workers, n)) of the goroutine processing the item, so callers
// can keep per-worker scratch state (estimator engines, reusable buffers)
// without locking. Items are handed out in order but complete in any
// order; the single-worker path runs inline with no goroutines.
//
// Cancellation stops the pool within one token-grant. A worker waiting
// for a token abandons the wait and exits; a worker mid-item finishes
// that item; the producer hands out no further items. When the context's
// cancellation is what stopped the pool, the context's error is returned
// verbatim (so callers can match context.Canceled with errors.Is); an fn
// error observed first wins.
func RunCtx(ctx context.Context, n, workers int, tok *Tokens, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := tok.AcquireCtx(ctx); err != nil {
				return err
			}
			err := fn(0, i)
			tok.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		done     = make(chan struct{})
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := tok.AcquireCtx(ctx); err != nil {
					fail(err)
					return
				}
				err := fn(w, i)
				tok.Release()
				if err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
produce:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done: // a worker failed: stop producing
			break produce
		case <-ctx.Done():
			fail(ctx.Err())
			break produce
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}
