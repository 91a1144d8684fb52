package sops_test

import (
	"math"
	"strings"
	"testing"

	sops "repro"
	"repro/internal/rngx"
	"repro/internal/sim"
)

// gridShape checks the render is exactly h lines of w characters.
func gridShape(t *testing.T, s string, w, h int) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != h {
		t.Fatalf("%d lines, want %d", len(lines), h)
	}
	for i, l := range lines {
		if len(l) != w {
			t.Fatalf("line %d has %d chars, want %d", i, len(l), w)
		}
	}
	return lines
}

func TestASCIIScatterEmptyAndNil(t *testing.T) {
	// The regression: empty input misbehaved. Both nil and empty must
	// yield a clean blank grid.
	for _, pos := range [][]sops.Vec2{nil, {}} {
		s := sops.ASCIIScatter(pos, nil, 20, 6)
		for _, l := range gridShape(t, s, 20, 6) {
			if strings.TrimSpace(l) != "" {
				t.Fatalf("blank grid expected, got %q", l)
			}
		}
	}
}

func TestASCIIScatterSkipsNonFinitePoints(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pos := []sops.Vec2{
		{X: 0, Y: 0},
		{X: 1, Y: 1},
		{X: nan, Y: 0.5},
		{X: 0.5, Y: -inf},
		{X: inf, Y: inf},
	}
	types := []int{0, 1, 2, 3, 4}
	s := sops.ASCIIScatter(pos, types, 16, 5) // must not panic (regression: index panic)
	gridShape(t, s, 16, 5)
	if !strings.Contains(s, "0") || !strings.Contains(s, "1") {
		t.Fatalf("finite points missing from render:\n%s", s)
	}
	for _, digit := range []string{"2", "3", "4"} {
		if strings.Contains(s, digit) {
			t.Fatalf("non-finite point %s was rendered:\n%s", digit, s)
		}
	}
	// All non-finite: blank grid, no panic.
	s = sops.ASCIIScatter([]sops.Vec2{{X: nan, Y: nan}, {X: inf, Y: 0}}, nil, 16, 5)
	for _, l := range gridShape(t, s, 16, 5) {
		if strings.TrimSpace(l) != "" {
			t.Fatalf("all-non-finite input should render blank, got %q", l)
		}
	}
}

func TestASCIIScatterNegativeTypesAndShortTypesSlice(t *testing.T) {
	pos := []sops.Vec2{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}
	// A negative label must map into '0'..'9', and a types slice shorter
	// than pos must not index-panic.
	s := sops.ASCIIScatter(pos, []int{-3, 12}, 12, 4)
	gridShape(t, s, 12, 4)
}

// TestASCIIScatterDivergedSim feeds the renderer the output of a
// deliberately unstable simulation — an Euler step far beyond
// MaxStableDt overflows positions to ±Inf/NaN — which used to
// index-panic the renderer.
func TestASCIIScatterDivergedSim(t *testing.T) {
	cfg := sops.SimConfig{
		N:          16,
		Force:      sops.MustF1(sops.ConstantMatrix(1, 10), sops.ConstantMatrix(1, 2)),
		Cutoff:     math.Inf(1),
		Dt:         1e30, // vastly beyond sim.MaxStableDt: guaranteed blow-up
		InitRadius: 0.5,
	}
	sys, err := sim.New(cfg, rngx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(50)
	pos := sys.Positions()
	nonFinite := 0
	for _, p := range pos {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Fatalf("simulation unexpectedly stayed finite; the renderer regression needs non-finite input")
	}
	gridShape(t, sops.ASCIIScatter(pos, sys.Types(), 40, 12), 40, 12)
}
