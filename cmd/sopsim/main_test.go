package main

import (
	"math"
	"strings"
	"testing"

	sops "repro"
)

// TestReportDivergedRun: `sopsim -rc 0 -seed 1` diverges within its 250
// steps. The report names the divergence instead of calling the run
// stationary, and draws the final configuration without panicking on its
// non-finite positions.
func TestReportDivergedRun(t *testing.T) {
	sp, err := resolveSpec("", 30, 3, "F1", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sops.NewSession().System(sp)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	report(&out, sys, 250)
	if net := sys.NetForce(); !math.IsNaN(net) && !math.IsInf(net, 0) {
		t.Fatalf("net force %g is finite; the test needs a diverged run", net)
	}
	for _, want := range []string{"terminal state: diverged", "final configuration (digits = types):"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestResolveSpecValidation: flag-built specs pass through Spec.Validate,
// so the CLI rejects exactly the configs the library rejects.
func TestResolveSpecValidation(t *testing.T) {
	if _, err := resolveSpec("", 30, 3, "F3", 5, 1); err == nil {
		t.Fatal("unknown force family accepted")
	}
	if _, err := resolveSpec("", 0, 3, "F1", 5, 1); err == nil {
		t.Fatal("n=0 accepted (previously built an invalid config unvalidated)")
	}
	if _, err := resolveSpec("", -5, 3, "F1", 5, 1); err == nil {
		t.Fatal("negative n accepted")
	}
	sp, err := resolveSpec("", 30, 3, "F1", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Sim == nil || sp.Sim.N != 30 || sp.Sim.Force == nil {
		t.Fatalf("spec = %+v", sp)
	}
	if sp.Sim.Cutoff != 0 {
		t.Fatalf("rc=0 (infinite) should serialise as omitted, got %g", sp.Sim.Cutoff)
	}
	// The drawn matrices are pinned: the same seed resolves to the same
	// spec, so -dump-spec output replays the exact system.
	again, err := resolveSpec("", 30, 3, "F1", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := sp.MarshalIndent()
	b2, _ := again.MarshalIndent()
	if string(b1) != string(b2) {
		t.Fatal("same seed produced different specs")
	}
}
