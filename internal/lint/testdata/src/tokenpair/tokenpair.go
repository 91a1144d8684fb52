// Package tokenpair is the corpus for the tokenpair analyzer: every
// acquired token must be released on every path, by defer or on all
// branches; the error return of AcquireCtx holds nothing.
package tokenpair

import (
	"context"
	"errors"

	"workpool"
)

// DeferPair is the gold-standard pairing: allowed.
func DeferPair(tok *workpool.Tokens) {
	tok.Acquire()
	defer tok.Release()
	work()
}

// DeferLit releases inside a deferred closure: allowed.
func DeferLit(tok *workpool.Tokens) {
	tok.Acquire()
	defer func() {
		work()
		tok.Release()
	}()
	work()
}

// AllBranches releases on every path after the if-init acquire form:
// the error branch holds nothing, and both surviving paths release.
func AllBranches(ctx context.Context, tok *workpool.Tokens) error {
	if err := tok.AcquireCtx(ctx); err != nil {
		return err
	}
	if mode() {
		tok.Release()
		return nil
	}
	work()
	tok.Release()
	return nil
}

// CtxAllPaths uses the standalone assign + error-check form; the check
// branch holds nothing and the fallthrough path releases. Allowed.
func CtxAllPaths(ctx context.Context, tok *workpool.Tokens) error {
	err := tok.AcquireCtx(ctx)
	if err != nil {
		return err
	}
	work()
	tok.Release()
	return nil
}

// LeakOnError returns from the error branch with the token still held.
func LeakOnError(tok *workpool.Tokens) error {
	tok.Acquire() // want "not released on every path"
	if mode() {
		return errors.New("leaks the token")
	}
	tok.Release()
	return nil
}

// LeakAtEnd falls off the end of the function still holding.
func LeakAtEnd(tok *workpool.Tokens) {
	tok.Acquire() // want "not released on every path"
	work()
}

// PanicPath treats the panic as process unwinding, not a leak: allowed.
func PanicPath(tok *workpool.Tokens) {
	tok.Acquire()
	if mode() {
		panic("unwinding releases nothing, but the process is done for")
	}
	tok.Release()
}

// PerIteration acquires and releases once per loop iteration: allowed.
func PerIteration(tok *workpool.Tokens, items []int) {
	for range items {
		tok.Acquire()
		work()
		tok.Release()
	}
}

// BreakThenRelease leaves the loop holding the token and releases it
// after the loop; every other path released inside. Allowed.
func BreakThenRelease(tok *workpool.Tokens, items []int) {
	for range items {
		tok.Acquire()
		if mode() {
			break
		}
		tok.Release()
	}
	tok.Release()
}

// ContinuePastRelease skips the release on some iterations: the next
// iteration acquires again with the token still held.
func ContinuePastRelease(tok *workpool.Tokens, items []int) {
	for range items {
		tok.Acquire() // want "not released on every path"
		if mode() {
			continue
		}
		tok.Release()
	}
}

// SelectReturn returns from one select arm while holding.
func SelectReturn(tok *workpool.Tokens, a, b chan int) int {
	tok.Acquire() // want "not released on every path"
	select {
	case v := <-a:
		return v
	case <-b:
	}
	tok.Release()
	return 0
}

// WorkerBody is the shared-pool worker loop: the AcquireCtx error
// branch reports and returns holding nothing, the success path
// releases before looking at the item's error. Allowed.
func WorkerBody(ctx context.Context, tok *workpool.Tokens, next chan int, fn func(int) error, fail func(error)) {
	for i := range next {
		if err := tok.AcquireCtx(ctx); err != nil {
			fail(err)
			return
		}
		err := fn(i)
		tok.Release()
		if err != nil {
			fail(err)
			return
		}
	}
}

// CondForm tests AcquireCtx's error in the condition itself; the error
// branch holds nothing. Allowed.
func CondForm(ctx context.Context, tok *workpool.Tokens) {
	if tok.AcquireCtx(ctx) != nil {
		return
	}
	work()
	tok.Release()
}

// HandOff passes the token to a goroutine that releases it. Allowed.
func HandOff(tok *workpool.Tokens, done chan struct{}) {
	tok.Acquire()
	go func() {
		defer tok.Release()
		work()
		close(done)
	}()
}

// ReleaseInLoop releases only on some iterations, and on none when the
// loop runs zero times.
func ReleaseInLoop(tok *workpool.Tokens, items []int) {
	tok.Acquire() // want "not released on every path"
	for range items {
		if mode() {
			tok.Release()
		}
	}
}

// EndlessContinue never exits, so no path reaches the end holding; but
// the continue comes back to the acquire with the token still held.
func EndlessContinue(tok *workpool.Tokens) {
	for {
		tok.Acquire() // want "not released on every path"
		if mode() {
			continue
		}
		tok.Release()
	}
}

func work()      {}
func mode() bool { return false }
