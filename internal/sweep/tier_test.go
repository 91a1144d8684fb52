package sweep

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/spec"
)

// approxGrid is a tiny grid sweep on the approximate estimator tier at
// tinyScale.
func approxGrid(seed uint64) spec.Spec {
	sc := tinyScale()
	return spec.Spec{
		Version:   spec.Version,
		Name:      "approx-grid",
		Seed:      seed,
		Sim:       &spec.Sim{N: 10},
		Ensemble:  &spec.Ensemble{M: sc.M, Steps: sc.Steps, RecordEvery: sc.RecordEvery},
		Estimator: &spec.Estimator{Tier: "approx", Subsample: 6},
		Sweep: &spec.Sweep{
			TypeCounts: []int{2},
			Cutoffs:    []float64{5},
			Force:      &spec.GridForce{Family: "f1"},
			Repeats:    sc.Repeats,
		},
	}
}

// TestApproxTierResumeBitIdentical is the kill/resume contract on the
// approximate tier: a sweep resumed from a partial checkpoint directory
// must reproduce the uninterrupted figure byte for byte — the subsample
// draw is keyed by (seed, step), never by which process evaluates it —
// and the per-step error bars must survive the checkpoint round trip
// bit-identically.
func TestApproxTierResumeBitIdentical(t *testing.T) {
	g := approxGrid(77)
	reference, err := RunSpec(context.Background(), experiment.SerialSweeper{}, g)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r := &Runner{Concurrency: 2, Dir: dir}
	first, err := RunSpec(context.Background(), r, g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(figureCSV(t, reference), figureCSV(t, first)) {
		t.Fatal("checkpointed approx sweep differs from the serial reference")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints written (err %v)", err)
	}

	// "Kill": drop one completed run, keep the rest.
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	var restored, computed int
	resume := &Runner{Concurrency: 2, Dir: dir, OnRunDone: func(_ int, _ experiment.SweepSpec, res *experiment.Result, fromCheckpoint bool) {
		if fromCheckpoint {
			restored++
		} else {
			computed++
		}
		if len(res.MIStdErr) != len(res.MI) {
			t.Errorf("run %q: %d error bars for %d MI points", res.Name, len(res.MIStdErr), len(res.MI))
		}
	}}
	resumed, err := RunSpec(context.Background(), resume, g)
	if err != nil {
		t.Fatal(err)
	}
	if computed != 1 || restored != len(files)-1 {
		t.Fatalf("restored %d / computed %d, want %d / 1", restored, computed, len(files)-1)
	}
	if !bytes.Equal(figureCSV(t, reference), figureCSV(t, resumed)) {
		t.Fatal("resumed approx sweep differs from the uninterrupted one")
	}
}

// TestApproxTierKeysOwnCheckpoints: exact-tier and approximate-tier runs
// of the same grid must never share a checkpoint file — the tier is part
// of the fingerprint when (and only when) it changes the numbers.
func TestApproxTierKeysOwnCheckpoints(t *testing.T) {
	dir := t.TempDir()

	exact := approxGrid(78)
	exact.Estimator = nil
	r := &Runner{Concurrency: 1, Dir: dir}
	exactFig, err := RunSpec(context.Background(), r, exact)
	if err != nil {
		t.Fatal(err)
	}

	// Same grid on the approximate tier, same directory: every run must
	// be computed (no cross-tier restore), and the curves must differ
	// from the exact ones (same draw seeds, different evaluation).
	var restored int
	r2 := &Runner{Concurrency: 1, Dir: dir, OnRunDone: func(_ int, _ experiment.SweepSpec, _ *experiment.Result, fromCheckpoint bool) {
		if fromCheckpoint {
			restored++
		}
	}}
	approxFig, err := RunSpec(context.Background(), r2, approxGrid(78))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("%d approx runs restored from exact-tier checkpoints", restored)
	}
	same := true
	for s := range exactFig.Series {
		for j := range exactFig.Series[s].Y {
			if math.Float64bits(exactFig.Series[s].Y[j]) != math.Float64bits(approxFig.Series[s].Y[j]) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("approximate tier reproduced the exact curves exactly — tier not threaded through the sweep")
	}
}
