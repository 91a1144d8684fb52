package experiment

import (
	"context"
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/sim"
	"repro/internal/statcomplex"
)

func TestSymbolicComplexityProfileShapes(t *testing.T) {
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:      10,
			Types:  sim.TypesRoundRobin(10, 2),
			Force:  forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 2)),
			Cutoff: 6,
		},
		M:           16,
		Steps:       60,
		RecordEvery: 2,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := SymbolicComplexityProfile(ens, 10, 4, 0.05,
		statcomplex.Options{MaxHistory: 1, MinCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != 3 { // 31 frames / 10 per window
		t.Fatalf("profile has %d windows, want 3", len(profile))
	}
	for _, p := range profile {
		if math.IsNaN(p.C) || math.IsNaN(p.H) || p.C < 0 || p.H < 0 {
			t.Fatalf("invalid complexity point: %+v", p)
		}
		if p.EndStep <= p.StartStep {
			t.Fatalf("bad window bounds: %+v", p)
		}
	}
}

func TestSymbolicComplexityRandomPhaseIsSimple(t *testing.T) {
	// A non-interacting collective: displacements are isotropic i.i.d.
	// noise, so each window's symbol process has (near) one causal state
	// and complexity ≈ 0 — the Sec. 7.1 claim for the random phase.
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:          8,
			Force:      forces.MustF1(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 1)),
			Cutoff:     1e-9,
			InitRadius: 50,
		},
		M:           16,
		Steps:       60,
		RecordEvery: 2,
		Seed:        14,
	})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := SymbolicComplexityProfile(ens, 15, 4, 0, // minStep 0: pure directions
		statcomplex.Options{MaxHistory: 1, MinCount: 20, Tolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profile {
		if p.C > 0.5 {
			t.Fatalf("random-phase complexity %v too high: %+v", p.C, p)
		}
	}
}

func TestSymbolicComplexityProfileValidation(t *testing.T) {
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:      4,
			Force:  forces.MustF1(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 2)),
			Cutoff: 5,
		},
		M: 2, Steps: 10, RecordEvery: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SymbolicComplexityProfile(ens, 1, 4, 0.1, statcomplex.Options{}); err == nil {
		t.Error("window of 1 accepted")
	}
	if _, err := SymbolicComplexityProfile(ens, 99, 4, 0.1, statcomplex.Options{}); err == nil {
		t.Error("window larger than the recording accepted")
	}
}
