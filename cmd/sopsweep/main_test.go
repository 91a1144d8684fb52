package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig8", "fig9", "fig10", "rings", "cell-adhesion", "long-range"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list missing %q:\n%s", name, out.String())
		}
	}
}

func TestFlagValidation(t *testing.T) {
	if err := run(context.Background(), nil, io.Discard, io.Discard); err == nil {
		t.Fatal("no target accepted")
	}
	if err := run(context.Background(), []string{"-scenario", "fig8", "-spec", "x.json"}, io.Discard, io.Discard); err == nil {
		t.Fatal("both -scenario and -spec accepted")
	}
	if err := run(context.Background(), []string{"-scenario", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run(context.Background(), []string{"-scenario", "fig8", "-scale", "huge"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestScenarioEndToEndWithResume runs the fig8 scenario at test scale
// with checkpointing, then re-runs into a second output directory: the
// resumed run must do zero pipeline work (every run restored) and its
// CSV must be byte-identical — the CLI-level resume contract.
func TestScenarioEndToEndWithResume(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	base := t.TempDir()
	ckpt := filepath.Join(base, "ckpt")
	out1 := filepath.Join(base, "out1")
	out2 := filepath.Join(base, "out2")
	args := []string{"-scenario", "fig8", "-scale", "test", "-seed", "7",
		"-checkpoint", ckpt, "-runs", "2"}
	if err := run(context.Background(), append(args, "-out", out1), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	if err := run(context.Background(), append(args, "-out", out2), io.Discard, &progress); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "from checkpoint") {
		t.Fatalf("second run did not resume:\n%s", progress.String())
	}
	if strings.Contains(strings.ReplaceAll(progress.String(), "(from checkpoint)", ""), "done fig8") &&
		strings.Count(progress.String(), "from checkpoint") != strings.Count(progress.String(), "done ") {
		t.Fatalf("second run recomputed runs:\n%s", progress.String())
	}
	a, err := os.ReadFile(filepath.Join(out1, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(out2, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed CSV differs from the original run")
	}
}

func TestCustomGridSpecEndToEnd(t *testing.T) {
	base := t.TempDir()
	spec := filepath.Join(base, "grid.json")
	if err := os.WriteFile(spec, []byte(`{
		"version": 1,
		"name": "minigrid",
		"sim": {"n": 8},
		"ensemble": {"m": 8, "steps": 6, "recordEvery": 3},
		"sweep": {"typeCounts": [2], "cutoffs": [-1], "force": {"family": "f2"}, "repeats": 2}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(base, "out")
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-spec", spec, "-out", out, "-q"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "minigrid.csv")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "minigrid") {
		t.Fatalf("chart output missing:\n%s", stdout.String())
	}
}

// TestDumpSpecRoundTrip: -dump-spec output fed back through -spec
// reproduces byte-identical figure output — the CLI-level face of the
// spec round-trip contract.
func TestDumpSpecRoundTrip(t *testing.T) {
	base := t.TempDir()
	var dumped bytes.Buffer
	args := []string{"-scenario", "fig8", "-scale", "test", "-seed", "5", "-m", "24", "-repeats", "2"}
	if err := run(context.Background(), append(args, "-dump-spec"), &dumped, io.Discard); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(base, "fig8.json")
	if err := os.WriteFile(specPath, dumped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	outA := filepath.Join(base, "a")
	outB := filepath.Join(base, "b")
	if err := run(context.Background(), append(args, "-out", outA, "-q"), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-spec", specPath, "-out", outB, "-q"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(outA, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(outB, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("-spec run diverged from the -scenario run it was dumped from")
	}
}

// TestLegacyGridSpecRejected: a pre-Spec grid file (no version key) no
// longer loads; sopsweep reports the Spec-format parse error and runs
// nothing.
func TestLegacyGridSpecRejected(t *testing.T) {
	base := t.TempDir()
	legacy := `{"name":"lg","n":8,"typeCounts":[2],"cutoffs":[5],"force":{"family":"f1"},"repeats":2}`
	path := filepath.Join(base, "legacy.json")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(base, "out")
	err := run(context.Background(), []string{"-spec", path, "-scale", "test", "-out", out, "-q"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "spec: parse "+path) || !strings.Contains(err.Error(), `unknown field "n"`) {
		t.Fatalf("legacy grid file: want the Spec-format parse error, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "lg.csv")); !os.IsNotExist(err) {
		t.Fatalf("legacy grid file produced a figure: %v", err)
	}
}
