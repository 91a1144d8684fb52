package sim

import (
	"context"
	"testing"

	"repro/internal/forces"
	"repro/internal/workpool"
)

func ensembleConfig(m, steps, every, workers int) EnsembleConfig {
	return EnsembleConfig{
		Sim: Config{
			N:      10,
			Force:  forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 2)),
			Cutoff: 5,
		},
		M:           m,
		Steps:       steps,
		RecordEvery: every,
		Seed:        99,
		Workers:     workers,
	}
}

func TestEnsembleRecordingSchedule(t *testing.T) {
	ens, err := RunEnsembleCtx(context.Background(), ensembleConfig(3, 50, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 20, 40, 50} // every 20 plus the final step
	times := ens.Times()
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestEnsembleFinalStepRecordedOnce(t *testing.T) {
	// Steps divisible by RecordEvery must not duplicate the final frame.
	ens, err := RunEnsembleCtx(context.Background(), ensembleConfig(2, 40, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	times := ens.Times()
	want := []int{0, 20, 40}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
}

func TestEnsembleIndependentOfWorkerCount(t *testing.T) {
	// Bit-identical results for 1 worker and 8 workers: sample seeds are
	// positional, not scheduling-dependent.
	a, err := RunEnsembleCtx(context.Background(), ensembleConfig(6, 30, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsembleCtx(context.Background(), ensembleConfig(6, 30, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Trajs {
		for f := range a.Trajs[s].Frames {
			for i := range a.Trajs[s].Frames[f] {
				if a.Trajs[s].Frames[f][i] != b.Trajs[s].Frames[f][i] {
					t.Fatalf("sample %d frame %d differs across worker counts", s, f)
				}
			}
		}
	}
}

// Ensemble runs must be bit-identical whatever the sample-level worker
// count and however tight the shared token budget those workers draw
// from: the two levels compose without breaking reproducibility.
func TestEnsembleDeterministicAcrossWorkerLevels(t *testing.T) {
	base := EnsembleConfig{
		Sim: Config{
			N:      24,
			Force:  forces.MustF1(forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 2)),
			Cutoff: 5,
		},
		M:           6,
		Steps:       40,
		RecordEvery: 10,
		Seed:        2012,
	}
	ref, err := RunEnsembleCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, tokens int }{{1, 0}, {4, 0}, {4, 1}, {3, 2}} {
		ec := base
		ec.Workers = tc.workers
		if tc.tokens > 0 {
			ec.Tokens = workpool.NewTokens(tc.tokens)
		}
		got, err := RunEnsembleCtx(context.Background(), ec)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ref.Trajs {
			for f := range ref.Trajs[s].Frames {
				for i := range ref.Trajs[s].Frames[f] {
					if ref.Trajs[s].Frames[f][i] != got.Trajs[s].Frames[f][i] {
						t.Fatalf("Workers=%d tokens=%d: sample %d frame %d particle %d diverged",
							tc.workers, tc.tokens, s, f, i)
					}
				}
			}
		}
	}
}

func TestEnsembleSamplesDiffer(t *testing.T) {
	ens, err := RunEnsembleCtx(context.Background(), ensembleConfig(2, 10, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	a := ens.Trajs[0].Frames[0]
	b := ens.Trajs[1].Frames[0]
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different samples got identical initial conditions")
	}
}

func TestEnsembleFramesAt(t *testing.T) {
	ens, err := RunEnsembleCtx(context.Background(), ensembleConfig(4, 20, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	frames := ens.FramesAt(1)
	if len(frames) != 4 {
		t.Fatalf("FramesAt returned %d samples", len(frames))
	}
	for s := range frames {
		if len(frames[s]) != 10 {
			t.Fatalf("sample %d has %d particles", s, len(frames[s]))
		}
		if &frames[s][0] != &ens.Trajs[s].Frames[1][0] {
			t.Fatal("FramesAt should alias stored trajectories")
		}
	}
}

func TestEnsembleValidation(t *testing.T) {
	bad := ensembleConfig(0, 10, 1, 0)
	if _, err := RunEnsembleCtx(context.Background(), bad); err == nil {
		t.Error("M=0 accepted")
	}
	bad = ensembleConfig(2, 0, 1, 0)
	if _, err := RunEnsembleCtx(context.Background(), bad); err == nil {
		t.Error("Steps=0 accepted")
	}
	bad = ensembleConfig(2, 10, 1, 0)
	bad.Sim.N = 0
	if _, err := RunEnsembleCtx(context.Background(), bad); err == nil {
		t.Error("invalid sim config accepted")
	}
}

func TestEnsembleTypesShared(t *testing.T) {
	ec := ensembleConfig(2, 10, 5, 0)
	ens, err := RunEnsembleCtx(context.Background(), ec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Types) != 10 {
		t.Fatalf("ensemble types = %v", ens.Types)
	}
	for i, ty := range ens.Types {
		if ty != i%2 {
			t.Fatal("ensemble types not the round-robin default")
		}
	}
}
