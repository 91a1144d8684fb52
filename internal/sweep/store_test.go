package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRunErrorSurvivesConcurrentCancel pins the error-masking fix: a
// run that fails for its own reason while a cancellation is in flight
// must surface that reason (joined with the context's error), while a
// pure cancellation still returns the context's error verbatim.
func TestRunErrorSurvivesConcurrentCancel(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	realErr := errors.New("estimator exploded")

	err := runError(cancelled, "run-1", realErr)
	if !errors.Is(err, realErr) {
		t.Fatalf("real error lost under concurrent cancel: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context error not joined: %v", err)
	}
	if !strings.Contains(err.Error(), "run-1") {
		t.Fatalf("run ID missing from %v", err)
	}

	if err := runError(cancelled, "run-1", context.Canceled); err != context.Canceled {
		t.Fatalf("pure cancellation = %v, want context.Canceled verbatim", err)
	}
	// A wrapped cancellation (the pipeline annotated ctx.Err) is still a
	// pure cancellation.
	if err := runError(cancelled, "run-1", fmt.Errorf("stage: %w", context.Canceled)); err != context.Canceled {
		t.Fatalf("wrapped cancellation = %v, want context.Canceled verbatim", err)
	}

	live := context.Background()
	err = runError(live, "run-2", realErr)
	if !errors.Is(err, realErr) || errors.Is(err, context.Canceled) {
		t.Fatalf("uncancelled failure = %v", err)
	}
}
