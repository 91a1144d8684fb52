package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/spec"
)

func TestScenarioRegistry(t *testing.T) {
	all := Scenarios()
	if len(all) < 7 {
		t.Fatalf("%d scenarios registered, want >= 7", len(all))
	}
	seen := map[string]bool{}
	for i, s := range all {
		if s.Name == "" || s.Desc == "" || s.Run == nil {
			t.Fatalf("scenario %d incomplete: %+v", i, s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
		if i > 0 && all[i-1].Name > s.Name {
			t.Fatal("registry not sorted by name")
		}
	}
	for _, name := range []string{"fig4", "fig8", "fig9", "fig10", "rings", "cell-adhesion", "long-range"} {
		if _, ok := LookupScenario(name); !ok {
			t.Fatalf("scenario %q missing", name)
		}
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Fatal("unknown scenario found")
	}
}

// TestScenariosRunAtTinyScale executes every registered scenario through
// a concurrent Runner at a minimal scale: curves must be present and the
// serial reference must agree bit for bit (the scenarios inherit the
// equivalence contract of the drivers they wrap).
func TestScenariosRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	sc := experiment.Scale{M: 12, Steps: 10, RecordEvery: 10, Repeats: 2}
	for _, s := range Scenarios() {
		if s.Name == "fig8" || s.Name == "fig9" || s.Name == "fig10" {
			continue // covered (at full series counts) by the driver equivalence test
		}
		want, err := s.Run(context.Background(), experiment.SerialSweeper{}, sc, 3)
		if err != nil {
			t.Fatalf("%s serial: %v", s.Name, err)
		}
		got, err := s.Run(context.Background(), &Runner{Concurrency: 3}, sc, 3)
		if err != nil {
			t.Fatalf("%s concurrent: %v", s.Name, err)
		}
		if len(got.Series) == 0 {
			t.Fatalf("%s produced no series", s.Name)
		}
		sameFigure(t, s.Name, want, got)
	}
}

// TestGridSpecLoadAndValidate: a grid file loads through the one spec
// reader and runs as its grid; malformed grids are rejected by spec.Parse
// (see its tests) and by RunSpec.
func TestGridSpecLoadAndValidate(t *testing.T) {
	good := filepath.Join(t.TempDir(), "good.json")
	if err := os.WriteFile(good, []byte(`{
		"version": 1,
		"name": "demo",
		"sim": {"n": 10},
		"ensemble": {"m": 10, "steps": 8, "recordEvery": 4},
		"sweep": {"typeCounts": [1, 2], "cutoffs": [5, -1], "force": {"family": "f1"}, "repeats": 2}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := RunSpec(context.Background(), nil, sp)
	if err != nil {
		t.Fatal(err)
	}
	if fd.ID != "demo" || len(fd.Series) != 4 || fd.Series[1].Name != "l=1,rc=inf" {
		t.Fatalf("grid figure = %q with series %+v", fd.ID, fd.Series)
	}
	if _, err := RunSpec(context.Background(), nil, spec.Spec{Sweep: &spec.Sweep{TypeCounts: []int{0}}}); err == nil {
		t.Fatal("invalid grid ran")
	}
}

// TestGridFigureEquivalenceAndShape runs a tiny custom grid serially and
// concurrently with checkpointing: same curves, one series per (l, rc)
// cell, infinite-cutoff encoding honoured.
func TestGridFigureEquivalenceAndShape(t *testing.T) {
	g := spec.Spec{
		Version:  spec.Version,
		Name:     "demo",
		Scale:    "test",
		Seed:     9,
		Sim:      &spec.Sim{N: 10},
		Ensemble: &spec.Ensemble{M: 10, Steps: 8, RecordEvery: 4},
		Sweep: &spec.Sweep{
			TypeCounts: []int{1, 2},
			Cutoffs:    []float64{5, -1}, // -1 → rc = ∞
			Force:      &spec.GridForce{Family: "f2"},
			Repeats:    2,
		},
	}
	want, err := RunSpec(context.Background(), nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Series) != 4 {
		t.Fatalf("%d series, want 4 cells", len(want.Series))
	}
	foundInf := false
	for _, s := range want.Series {
		if s.Name == "l=2,rc=inf" {
			foundInf = true
		}
	}
	if !foundInf {
		t.Fatalf("rc=inf cell missing: %+v", want.Series)
	}
	got, err := RunSpec(context.Background(), &Runner{Concurrency: 4, Store: DirStore{Dir: t.TempDir()}}, g)
	if err != nil {
		t.Fatal(err)
	}
	sameFigure(t, "grid", want, got)

	// No scale preset and no repeats: the grid has nothing to average.
	bad := spec.Spec{Version: spec.Version, Sweep: &spec.Sweep{Force: &spec.GridForce{Family: "f1"}}}
	if _, err := RunSpec(context.Background(), nil, bad); err == nil {
		t.Fatal("repeats<1 grid accepted")
	}
}
