// Package goroleak is the corpus for the goroleak analyzer: every
// goroutine must be joined — WaitGroup pairing, close-join, send-join,
// or a ctx/done bound. The accept-loop cases pin the distributed-sweep
// teardown race in both its broken (pre-fix) and fixed shapes.
package goroleak

import (
	"context"
	"net"
	"sync"
	"time"
)

// AcceptLoopRace is the exact pre-fix coordinator shape: the accept
// loop is spawned with no join of its own. Teardown closes the
// listener and waits for the handlers, but nothing waits for the
// accept loop itself — it can still be between Accept returning and
// handlers.Add when Wait passes, and the handler it then spawns races
// the caller's cleanup.
func AcceptLoopRace(ln net.Listener, handle func(net.Conn)) func() {
	var handlers sync.WaitGroup
	go func() { // want "goroutine is not joined"
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				handle(conn)
			}()
		}
	}()
	return func() {
		ln.Close()
		handlers.Wait()
	}
}

// AcceptLoopJoined is the fixed shape: the accept loop closes
// acceptDone on every exit path, and teardown receives from it after
// closing the listener — only then is the handler group complete and
// Wait sound.
func AcceptLoopJoined(ln net.Listener, handle func(net.Conn)) func() {
	var handlers sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				handle(conn)
			}()
		}
	}()
	return func() {
		ln.Close()
		<-acceptDone
		handlers.Wait()
	}
}

// WaitGroupJoined is the canonical worker pattern: Add before the
// spawn, deferred Done, Wait in the same function.
func WaitGroupJoined(n int, work func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	wg.Wait()
}

// DoneNotOnAllPaths: the early return skips wg.Done, so Wait hangs on
// the error path — Done must be deferred or reached on every exit.
func DoneNotOnAllPaths(work func() error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "goroutine is not joined"
		if err := work(); err != nil {
			return
		}
		wg.Done()
	}()
	wg.Wait()
}

// AddInsideGoroutine: Add racing the spawn means Wait can pass before
// the goroutine registers itself — Add must precede the go statement.
func AddInsideGoroutine(work func()) {
	var wg sync.WaitGroup
	go func() { // want "goroutine is not joined"
		wg.Add(1)
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// FieldGroup: the WaitGroup is owned wider than this function (a struct
// field), so the Wait lives with the owner; the Add/Done pairing here
// is still required and suffices.
type pool struct {
	wg sync.WaitGroup
}

func (p *pool) Spawn(work func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		work()
	}()
}

// SendJoined is the spawner idiom: the body's only exit sends the
// result, and the returned closure receives it — whoever calls the
// closure joins the goroutine.
func SendJoined(run func() error) func() error {
	done := make(chan error, 1)
	go func() {
		done <- run()
	}()
	return func() error { return <-done }
}

// CtxBounded: the body blocks on ctx.Done(), so cancellation reaps it;
// its lifetime is the context's.
func CtxBounded(ctx context.Context, conn net.Conn) {
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
}

// TickerBounded: a done-shaped channel (chan struct{}) bounds the loop.
func TickerBounded(stop chan struct{}, tick func()) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				tick()
			}
		}
	}()
}

// NamedWithCtx: a named callee handed the caller's context owns its
// termination through it.
func NamedWithCtx(ctx context.Context, run func(context.Context) error) {
	go runForever(ctx, run)
}

func runForever(ctx context.Context, run func(context.Context) error) {
	_ = run(ctx)
}

// NamedDetached: a named callee with no context and no channel is
// unreachable once spawned.
func NamedDetached(run func(context.Context) error) {
	go detached(run) // want "goroutine calls detached with no context or channel"
}

func detached(run func(context.Context) error) {
	_ = run(context.TODO())
}

// NamedBounded: a named callee whose own body waits on the group it
// is handed is bounded, as its BoundedFact records.
func NamedBounded(dead *sync.WaitGroup, stop func()) {
	go awaitGroup(dead, stop)
}

func awaitGroup(dead *sync.WaitGroup, stop func()) {
	dead.Wait()
	stop()
}

// PlainLeak: no join of any kind.
func PlainLeak(work func()) {
	go func() { // want "goroutine is not joined"
		work()
	}()
}
