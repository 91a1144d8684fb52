package workpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversAllItems(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var mu sync.Mutex
		seen := map[int]int{}
		if err := Run(37, workers, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 37 {
			t.Fatalf("workers=%d: %d items ran, want 37", workers, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if err := Run(0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := Run(1, 8, func(int) error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRunReturnsFirstErrorAndStops(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Run(10_000, 2, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Error("error did not stop the producer early")
	}
}

func TestRunSharedWorkerSlotsAreDense(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var mu sync.Mutex
		slots := map[int]bool{}
		if err := RunCtx(context.Background(), 50, workers, nil, func(w, i int) error {
			mu.Lock()
			slots[w] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		max := workers
		if max > 50 {
			max = 50
		}
		for w := range slots {
			if w < 0 || w >= max {
				t.Fatalf("workers=%d: slot %d outside [0,%d)", workers, w, max)
			}
		}
	}
}

// TestTokensBoundGlobalConcurrency runs several pools against one shared
// budget and checks the number of simultaneously active items never
// exceeds the budget — the invariant the sweep runner relies on.
func TestTokensBoundGlobalConcurrency(t *testing.T) {
	const budget = 3
	tok := NewTokens(budget)
	var active, peak atomic.Int64
	var wg sync.WaitGroup
	for pool := 0; pool < 4; pool++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunCtx(context.Background(), 40, 8, tok, func(_, _ int) error {
				n := active.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
				active.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > budget {
		t.Fatalf("peak active items %d exceeds budget %d", p, budget)
	}
}

func TestNilTokensAreNoOp(t *testing.T) {
	var tok *Tokens
	tok.Acquire()
	tok.Release()
	if tok.Cap() != 0 {
		t.Fatal("nil budget should report Cap 0")
	}
	if NewTokens(0).Cap() <= 0 {
		t.Fatal("defaulted budget must be positive")
	}
}

func TestRunSharedPropagatesErrorUnderBudget(t *testing.T) {
	boom := errors.New("boom")
	tok := NewTokens(2)
	err := RunCtx(context.Background(), 1000, 4, tok, func(_, i int) error {
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The budget must be fully returned: both tokens acquirable without
	// blocking.
	done := make(chan struct{})
	go func() {
		tok.Acquire()
		tok.Acquire()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tokens leaked after an error run")
	}
}

// TestRunAllWorkersFailNoDeadlock is the pool-level deadlock regression
// test: every worker errors immediately, with far more items than workers;
// the producer must drain instead of blocking on an unbuffered send.
func TestRunAllWorkersFailNoDeadlock(t *testing.T) {
	donec := make(chan error, 1)
	go func() {
		donec <- Run(100_000, 4, func(int) error { return errors.New("fail") })
	}()
	select {
	case err := <-donec:
		if err == nil {
			t.Fatal("no error reported")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked when all workers failed")
	}
}

// TestAcquireCtxCancellation: a budget waiter abandons the wait when the
// context is cancelled, and a nil budget still honours cancellation —
// the one-token-grant cancellation contract every stage builds on.
func TestAcquireCtxCancellation(t *testing.T) {
	tok := NewTokens(1)
	tok.Acquire() // exhaust the budget
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- tok.AcquireCtx(ctx) }()
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireCtx returned %v, want context.Canceled", err)
	}
	tok.Release()

	var nilTok *Tokens
	if err := nilTok.AcquireCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil AcquireCtx returned %v, want context.Canceled", err)
	}
	if err := nilTok.AcquireCtx(context.Background()); err != nil {
		t.Fatalf("nil AcquireCtx with live context: %v", err)
	}
}

// TestRunSharedCtxCancellation: cancelling mid-pool stops further items
// and returns the context's error verbatim, on both the inline
// single-worker path and the goroutine pool.
func TestRunSharedCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		err := RunCtx(ctx, 100, workers, nil, func(_, i int) error {
			if started.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := started.Load(); n >= 100 {
			t.Fatalf("workers=%d: all items ran despite cancellation", workers)
		}
	}
}
