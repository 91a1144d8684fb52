package sops_test

import (
	"context"
	"math"
	"testing"

	sops "repro"
)

// measure runs one single-run spec through a fresh session, the
// documented public-API path.
func measure(t *testing.T, name string, cfg sops.SimConfig, m, steps, every int, seed uint64) *sops.Result {
	t.Helper()
	sp, err := sops.NewSpec(name, sops.WithSim(cfg), sops.WithEnsemble(m, steps, every), sops.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sops.NewSession().Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQuickstartFlow exercises the documented public-API path end to end:
// build an interaction, describe the experiment as a spec, run it through
// a session, observe a finite MI curve.
func TestQuickstartFlow(t *testing.T) {
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
	res := measure(t, "facade", cfg, 24, 30, 15, 1)
	if len(res.MI) != 3 {
		t.Fatalf("MI = %v", res.MI)
	}
	for _, mi := range res.MI {
		if math.IsNaN(mi) || math.IsInf(mi, 0) {
			t.Fatalf("non-finite MI: %v", res.MI)
		}
	}
}

// TestSelfOrganizationDetected is the headline acceptance test of the whole
// repository: an adhesively differentiated collective must show increasing
// multi-information (self-organization per Sec. 3.1), clearly above its
// initial i.i.d. level.
func TestSelfOrganizationDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble too large for -short")
	}
	r := sops.MustMatrix([][]float64{
		{1.5, 4.0},
		{4.0, 2.0},
	})
	cfg := sops.SimConfig{
		N:      16,
		Types:  sops.TypesRoundRobin(16, 2),
		Force:  sops.MustF1(sops.ConstantMatrix(2, 1), r),
		Cutoff: 6,
	}
	res := measure(t, "acceptance", cfg, 96, 150, 150, 11)
	if res.DeltaI() < 1 {
		t.Fatalf("ΔI = %v bits; expected clear self-organization (> 1 bit)", res.DeltaI())
	}
}

// TestCompletelyRandomProcessShowsNoSelfOrganization is the paper's control
// (Sec. 3.1): for a non-interacting collective (pure noise), the measure
// must not detect self-organization.
func TestCompletelyRandomProcessShowsNoSelfOrganization(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble too large for -short")
	}
	// Particles far outside each other's cut-off radius never interact:
	// the dynamics are i.i.d. Brownian noise.
	cfg := sops.SimConfig{
		N:          12,
		Force:      sops.MustF1(sops.ConstantMatrix(1, 1), sops.ConstantMatrix(1, 1)),
		Cutoff:     1e-6,
		InitRadius: 50,
	}
	res := measure(t, "control", cfg, 96, 150, 150, 13)
	if res.DeltaI() > 1 {
		t.Fatalf("ΔI = %v bits on a non-interacting collective; expected ≈ 0", res.DeltaI())
	}
}
