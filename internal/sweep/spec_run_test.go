package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/spec"
)

// TestScenarioSpecsRoundTripLossless: every named scenario in the
// registry has a declarative Spec form that survives JSON marshal →
// parse → marshal byte-for-byte and value-for-value (an acceptance
// criterion of the Spec redesign).
func TestScenarioSpecsRoundTripLossless(t *testing.T) {
	names := []string{"fig4", "fig8", "fig9", "fig10", "rings", "cell-adhesion", "long-range"}
	if got := len(Scenarios()); got != len(names) {
		t.Fatalf("registry has %d scenarios, test covers %d — keep them in sync", got, len(names))
	}
	for _, name := range names {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		sp := s.Spec("quick", 2012)
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: invalid spec: %v", name, err)
		}
		b1, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Parse(b1, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, sp) {
			t.Fatalf("%s: round-trip changed the spec:\nwant %+v\ngot  %+v", name, sp, got)
		}
		b2, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("%s: JSON not a fixed point:\n%s\n%s", name, b1, b2)
		}
	}
}

// TestRunSpecDispatch: the one dispatcher reproduces scenario and
// single-run experiments (TestGridFigureGoldenBits pins the grid kind).
func TestRunSpecDispatch(t *testing.T) {
	ctx := context.Background()
	sc := experiment.TestScale()

	// Scenario spec ≡ direct scenario run.
	s, _ := LookupScenario("fig8")
	want, err := s.Run(ctx, nil, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpec(ctx, nil, s.Spec("test", 3))
	if err != nil {
		t.Fatal(err)
	}
	sameFigure(t, "scenario", want, got)

	// Single-run spec: the figure is the run's MI curve.
	runSpec, err := spec.New("single",
		spec.WithSim(experiment.Fig5Params()),
		spec.WithScale("test"),
		spec.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := RunSpec(ctx, nil, runSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runSpec.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 1 || !reflect.DeepEqual(fd.Series[0].Y, res.MI) {
		t.Fatalf("single-run figure does not match the pipeline result")
	}

	if _, err := RunSpec(ctx, nil, spec.Spec{Scenario: "nope", Scale: "test"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestSweepCancellation is the cancellation acceptance regression:
// cancelling a checkpointing sweep mid-run (1) returns context.Canceled,
// (2) leaves only valid checkpoints for the runs that finished, and
// (3) resuming with the same directory reproduces the uninterrupted
// figure byte-for-byte while actually restoring from disk.
func TestSweepCancellation(t *testing.T) {
	sc := experiment.TestScale()
	sc.Repeats = 3
	const maxTypes = 3
	seed := uint64(17)
	specs := experiment.Fig8Specs(sc, maxTypes, seed)

	// Uninterrupted reference.
	reference, err := experiment.Fig8TypeCountSweep(context.Background(), experiment.SerialSweeper{}, sc, maxTypes, seed)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	interrupted := &Runner{
		Concurrency: 2,
		Store:       DirStore{Dir: dir},
		OnProgress: func(ev experiment.ProgressEvent) {
			if ev.Kind == experiment.ProgressRunDone && done.Add(1) == 3 {
				cancel() // cancel mid-sweep, after a few checkpoints exist
			}
		},
	}
	_, err = interrupted.Sweep(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	completed := int(done.Load())
	if completed >= len(specs) {
		t.Fatalf("sweep finished (%d runs) before the cancellation landed — shrink the trigger", completed)
	}

	// Resume: the checkpoints written before the cancellation must be
	// restored (not recomputed), and the figure must match the
	// uninterrupted reference exactly.
	var n runCounts
	resume := &Runner{Store: DirStore{Dir: dir}, OnProgress: n.count}
	resumed, err := experiment.Fig8TypeCountSweep(context.Background(), resume, sc, maxTypes, seed)
	if err != nil {
		t.Fatal(err)
	}
	if restored := n.restored.Load(); restored < 3 {
		t.Fatalf("resume restored %d checkpoints, want >= 3", restored)
	}
	sameFigure(t, "resumed-after-cancel", reference, resumed)
}

// TestSerialSweeperCancellation: even the serial reference stops between
// runs and reports the context's error.
func TestSerialSweeperCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := experiment.TestScale()
	if _, err := (experiment.SerialSweeper{}).Sweep(ctx, experiment.Fig8Specs(sc, 1, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
