// Package errverbatim is the corpus for the cancellation-verbatim
// analyzer: ctx.Err() and the context sentinels must be returned
// untouched — not wrapped, laundered through a helper, or replaced by
// a fabricated error.
package errverbatim

import (
	"context"
	"errors"
	"fmt"

	"errverbatim/wrapx"
)

// WrapDirect wraps the tracked cancellation error in fmt.Errorf.
func WrapDirect(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("stopped: %w", err) // want "WrapDirect wraps the context cancellation error"
	}
	return nil
}

// CanceledSentinel wraps the package sentinel itself.
func CanceledSentinel() error {
	return fmt.Errorf("stop: %w", context.Canceled) // want "CanceledSentinel wraps the context cancellation error"
}

// Replace observes Done and fabricates a fresh error.
func Replace(ctx context.Context, done chan struct{}) error {
	select {
	case <-ctx.Done():
		return errors.New("cancelled") // want "Replace observes cancellation but returns a fabricated error"
	case <-done:
		return nil
	}
}

// ReplaceErrf observes cancellation and fabricates via Errorf without
// carrying the sentinel.
func ReplaceErrf(ctx context.Context) error {
	if ctx.Err() != nil {
		return fmt.Errorf("gave up after cancellation") // want "ReplaceErrf observes cancellation but returns a fabricated error"
	}
	return nil
}

// LaunderLocal pushes the sentinel through a package-local wrapper.
func LaunderLocal(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return annotate(ctx.Err()) // want "LaunderLocal passes the context cancellation error to errverbatim.annotate"
	}
}

func annotate(err error) error { return fmt.Errorf("run: %w", err) }

// LaunderRemote pushes it through the cross-package helper: visible
// only through wrapx's ErrWrapFact.
func LaunderRemote(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return wrapx.Wrap("run", ctx.Err()) // want "LaunderRemote passes the context cancellation error to wrapx.Wrap"
	}
}

// Verbatim is the sanctioned shape: the sentinel flows out untouched.
func Verbatim(ctx context.Context, work chan int) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case _, ok := <-work:
			if !ok {
				return nil
			}
		}
	}
}

// VerbatimTracked returns the tracked ident untouched.
func VerbatimTracked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// LaunderDeep3 launders through a chain of three local wrappers: the
// innermost wraps, the outer two pass the error on.
func LaunderDeep3(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return chain3(ctx.Err()) // want "LaunderDeep3 passes the context cancellation error to errverbatim.chain3"
	}
}

func chain3(err error) error { return chain2(err) }
func chain2(err error) error { return chain1(err) }
func chain1(err error) error { return fmt.Errorf("chain: %w", err) }

// LaunderDeep5 launders through a chain of five.
func LaunderDeep5(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return relay5("stop", err) // want "LaunderDeep5 passes the context cancellation error to errverbatim.relay5"
	}
	return nil
}

func relay5(op string, err error) error { return relay4(op, err) }
func relay4(op string, err error) error { return relay3(op, err) }
func relay3(op string, err error) error { return relay2(op, err) }
func relay2(op string, err error) error { return relay1(op, err) }
func relay1(op string, err error) error { return fmt.Errorf("%s: %w", op, err) }
