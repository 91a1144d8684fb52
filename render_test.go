package sops_test

import (
	"math"
	"os"
	"path/filepath"
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

func TestASCIIScatterPlacesAllTypes(t *testing.T) {
	pos := []sops.Vec2{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	s := sops.ASCIIScatter(pos, []int{0, 1, 2, 3}, 64, 24)
	lines := gridShape(t, s, 64, 24)
	// Each point lands in its corner of the grid.
	for _, c := range []struct {
		row, col int
		digit    byte
	}{{23, 0, '0'}, {23, 63, '1'}, {0, 0, '2'}, {0, 63, '3'}} {
		if got := lines[c.row][c.col]; got != c.digit {
			t.Errorf("cell (%d, %d) = %q, want %q:\n%s", c.row, c.col, got, c.digit, s)
		}
	}
}

func TestASCIIScatterDegenerateCloud(t *testing.T) {
	// All points coincident: the zero span must not divide by zero.
	s := sops.ASCIIScatter([]sops.Vec2{{X: 1, Y: 1}, {X: 1, Y: 1}}, []int{0, 0}, 64, 24)
	gridShape(t, s, 64, 24)
	if !strings.Contains(s, "0") {
		t.Fatalf("coincident points not rendered:\n%s", s)
	}
}

func TestASCIIScatterTypeWraparound(t *testing.T) {
	s := sops.ASCIIScatter([]sops.Vec2{{X: 0, Y: 0}, {X: 5, Y: 5}}, []int{12, 7}, 64, 24)
	if !strings.Contains(s, "2") || !strings.Contains(s, "7") { // 12 renders as digit 2
		t.Fatalf("type digits wrong:\n%s", s)
	}
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

func TestWriteFigure(t *testing.T) {
	dir := t.TempDir()
	fd := &sops.FigureData{
		ID:     "figtest",
		Title:  "test figure",
		Notes:  "two series",
		Series: []sops.Series{{Name: "a", X: []float64{0, 1}, Y: []float64{2, 3}}, {Name: "b", X: []float64{0, 1}, Y: []float64{1, 0}}},
	}
	var out strings.Builder
	if err := sops.WriteFigure(&out, dir, fd); err != nil {
		t.Fatal(err)
	}
	csvPath, svgPath := filepath.Join(dir, "figtest.csv"), filepath.Join(dir, "figtest.svg")
	for _, want := range []string{"test figure", "notes: two series\n", "wrote " + csvPath + " and " + svgPath + "\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "series,x,y\na,0,2\na,1,3\nb,0,1\nb,1,0\n"; string(csv) != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") || !strings.Contains(string(svg), "test figure") {
		t.Errorf("SVG malformed:\n%s", svg)
	}
	if err := sops.WriteFigure(&out, filepath.Join(dir, "missing"), fd); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
