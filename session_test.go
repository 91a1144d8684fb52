package sops_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	sops "repro"
	"repro/internal/sim"
)

func sessionSpec(t *testing.T, name string, seed uint64) sops.Spec {
	t.Helper()
	r := sops.MustMatrix([][]float64{
		{1.5, 3.0, 2.5},
		{3.0, 1.5, 2.0},
		{2.5, 2.0, 1.8},
	})
	cfg := sops.SimConfig{
		N:      12,
		Force:  sops.MustF1(sops.ConstantMatrix(3, 1), r),
		Cutoff: 5,
	}
	sp, err := sops.NewSpec(name,
		sops.WithSim(cfg),
		sops.WithEnsemble(24, 30, 15),
		sops.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSessionRunMatchesLegacyEntryPoint extends the stream-equivalence
// contract to the Session path: Session.Run of a spec is bit-identical
// to the context-less Pipeline.Run of the spec's pipeline, for the same
// seed.
func TestSessionRunMatchesLegacyEntryPoint(t *testing.T) {
	sp := sessionSpec(t, "equiv", 1)
	p, err := sp.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sops.NewSession().Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Times, got.Times) || !reflect.DeepEqual(want.MI, got.MI) {
		t.Fatalf("Session.Run diverged from Pipeline.Run:\nwant %v\ngot  %v", want.MI, got.MI)
	}
	if want.EquilibratedFraction != got.EquilibratedFraction {
		t.Fatalf("equilibrated fraction %v vs %v", want.EquilibratedFraction, got.EquilibratedFraction)
	}
}

// TestSessionSweepMatchesSerialRuns: a Session.Sweep equals running each
// spec alone, bit for bit, and reports progress events for every stage.
func TestSessionSweepMatchesSerialRuns(t *testing.T) {
	specs := []sops.Spec{
		sessionSpec(t, "s0", 1),
		sessionSpec(t, "s1", 2),
		sessionSpec(t, "s2", 3),
	}
	session := sops.NewSession(sops.WithWorkerBudget(2), sops.WithRunConcurrency(2))
	var samples, steps, runs atomic.Int64
	unsubscribe := session.Subscribe(func(ev sops.ProgressEvent) {
		switch ev.Kind {
		case sops.ProgressSampleSimulated:
			samples.Add(1)
		case sops.ProgressStepEstimated:
			steps.Add(1)
		case sops.ProgressRunDone:
			runs.Add(1)
		}
	})
	defer unsubscribe()
	got, err := session.Sweep(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		p, err := sp.Pipeline()
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.MI, got[i].MI) {
			t.Fatalf("sweep run %d diverged:\nwant %v\ngot  %v", i, want.MI, got[i].MI)
		}
	}
	if samples.Load() != 3*24 {
		t.Errorf("saw %d sample events, want %d", samples.Load(), 3*24)
	}
	if steps.Load() != 3*3 { // Times = {0, 15, 30}
		t.Errorf("saw %d step events, want %d", steps.Load(), 3*3)
	}
	if runs.Load() != 3 {
		t.Errorf("saw %d run-done events, want 3", runs.Load())
	}

	// Duplicate and missing names are rejected up front.
	if _, err := session.Sweep(context.Background(), sops.Spec{}); err == nil {
		t.Error("nameless sweep spec accepted")
	}
}

// TestSessionSweepCancellation: cancelling Session.Sweep mid-run returns
// context.Canceled, keeps the finished runs' checkpoints valid, and a
// re-issued sweep resumes to bit-identical results — the public-API face
// of the sweep cancellation contract.
func TestSessionSweepCancellation(t *testing.T) {
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	specs := make([]sops.Spec, len(names))
	for i, n := range names {
		specs[i] = sessionSpec(t, n, uint64(i+1))
	}
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	session := sops.NewSession(sops.WithCheckpointDir(dir), sops.WithRunConcurrency(1))
	var done atomic.Int32
	unsub := session.Subscribe(func(ev sops.ProgressEvent) {
		if ev.Kind == sops.ProgressRunDone && done.Add(1) == 2 {
			cancel()
		}
	})
	_, err := session.Sweep(ctx, specs...)
	unsub()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if int(done.Load()) >= len(specs) {
		t.Fatal("sweep finished before cancellation landed")
	}

	// Resume with a fresh session over the same directory: results must
	// equal an uninterrupted serial reference, restoring at least the
	// completed runs.
	resumed := sops.NewSession(sops.WithCheckpointDir(dir))
	var restored atomic.Int32
	unsub = resumed.Subscribe(func(ev sops.ProgressEvent) {
		if ev.Kind == sops.ProgressRunDone && ev.FromCheckpoint {
			restored.Add(1)
		}
	})
	got, err := resumed.Sweep(context.Background(), specs...)
	unsub()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Load() < 2 {
		t.Fatalf("resume restored %d checkpoints, want >= 2", restored.Load())
	}
	for i, sp := range specs {
		p, err := sp.Pipeline()
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.MI, got[i].MI) {
			t.Fatalf("resumed run %d diverged:\nwant %v\ngot  %v", i, want.MI, got[i].MI)
		}
	}
}

// TestSessionSweepsStaleTempsOnStartup: a process killed between
// CreateTemp and the rename in the checkpoint writer leaves .tmp-run-*
// remnants in the checkpoint directory. Constructing a Session over that
// directory must remove them, keep the completed checkpoints intact, and
// resume from those checkpoints exactly as if the crash never happened.
func TestSessionSweepsStaleTempsOnStartup(t *testing.T) {
	specs := []sops.Spec{
		sessionSpec(t, "k0", 1),
		sessionSpec(t, "k1", 2),
	}
	dir := t.TempDir()

	// First life: complete the sweep, so checkpoints exist.
	first := sops.NewSession(sops.WithCheckpointDir(dir))
	want, err := first.Sweep(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}

	// The kill: plant the remnants an interrupted writer leaves — temp
	// files that never reached their rename, including one holding a
	// truncated half-checkpoint.
	for _, name := range []string{".tmp-run-1234567", ".tmp-run-7654321"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: a fresh session over the same directory sweeps the
	// remnants at construction time.
	resumed := sops.NewSession(sops.WithCheckpointDir(dir))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-run-") {
			t.Errorf("stale temp %s survived session startup", e.Name())
		}
	}
	if n := len(entries); n != len(specs) {
		t.Errorf("checkpoint dir has %d entries after startup sweep, want %d completed checkpoints", n, len(specs))
	}

	// The completed checkpoints still resume: every run restores rather
	// than recomputes, bit-identically.
	var restored atomic.Int32
	unsub := resumed.Subscribe(func(ev sops.ProgressEvent) {
		if ev.Kind == sops.ProgressRunDone && ev.FromCheckpoint {
			restored.Add(1)
		}
	})
	got, err := resumed.Sweep(context.Background(), specs...)
	unsub()
	if err != nil {
		t.Fatal(err)
	}
	if int(restored.Load()) != len(specs) {
		t.Fatalf("resume restored %d checkpoints, want %d", restored.Load(), len(specs))
	}
	for i := range specs {
		if !reflect.DeepEqual(want[i].MI, got[i].MI) {
			t.Fatalf("restored run %d diverged:\nwant %v\ngot  %v", i, want[i].MI, got[i].MI)
		}
	}
}

// TestSessionSystemAndEnsemble: the non-pipeline session entry points
// reproduce the raw building blocks.
func TestSessionSystemAndEnsemble(t *testing.T) {
	sp := sessionSpec(t, "sys", 4)
	session := sops.NewSession()

	sys, err := session.System(sp)
	if err != nil {
		t.Fatal(err)
	}
	sys.Step()
	if len(sys.Positions()) != 12 {
		t.Fatalf("system has %d particles", len(sys.Positions()))
	}

	ens, err := session.Ensemble(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sp.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunEnsembleCtx(context.Background(), p.Ensemble)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Trajs, ens.Trajs) {
		t.Fatal("Session.Ensemble diverged from sim.RunEnsembleCtx")
	}

	// A cancelled context is honoured immediately.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := session.Ensemble(cancelled, sp); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := session.Run(cancelled, sp); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
