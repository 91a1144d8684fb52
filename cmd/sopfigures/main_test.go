package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/sweep"
	"repro/internal/vec"
)

func TestResultFigure(t *testing.T) {
	fd := resultFigure("figX", "title", []int{0, 10, 20}, []float64{1, 2, 3})
	if fd.ID != "figX" || len(fd.Series) != 1 {
		t.Fatal("figure structure wrong")
	}
	if fd.Series[0].X[1] != 10 || fd.Series[0].Y[2] != 3 {
		t.Fatal("series values wrong")
	}
}

func TestRunnerSaveFigureWritesCSVAndSVG(t *testing.T) {
	dir := t.TempDir()
	r := runner{sc: experiment.TestScale(), seed: 1, out: dir}
	fd := &experiment.FigureData{
		ID:    "figtest",
		Title: "test figure",
		Series: []experiment.Series{
			{Name: "a", X: []float64{0, 1}, Y: []float64{2, 3}},
		},
	}
	if err := r.saveFigure(fd); err != nil {
		t.Fatal(err)
	}
	csvBytes, err := os.ReadFile(filepath.Join(dir, "figtest.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvBytes), "series,x,y") {
		t.Error("CSV header missing")
	}
	svgBytes, err := os.ReadFile(filepath.Join(dir, "figtest.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svgBytes), "<svg") {
		t.Error("SVG output malformed")
	}
}

func TestRunnerSaveConfigs(t *testing.T) {
	dir := t.TempDir()
	r := runner{sc: experiment.TestScale(), seed: 1, out: dir}
	cfgs := []experiment.TypedConfig{
		{
			Label: "demo",
			Pos:   []vec.Vec2{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}},
			Types: []int{0, 1, 2},
		},
	}
	if err := r.saveConfigs("figz", cfgs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figz-00.svg")); err != nil {
		t.Fatal("SVG not written")
	}
}

func TestRunnerUnknownFigure(t *testing.T) {
	r := runner{sc: experiment.TestScale(), seed: 1, out: t.TempDir()}
	if err := r.run("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestRunnerSweepFigureRunsItsSpec: a sweep figure runs on the runner's
// Session as the scenario spec -dump-spec prints, and writes the CSV the
// serial reference writes for that spec.
func TestRunnerSweepFigureRunsItsSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	sc := experiment.TestScale()
	dir := t.TempDir()
	r := runner{sc: sc, scaleName: "test", seed: 7, out: dir, ctx: context.Background(),
		session: sops.NewSession(sops.WithWorkerBudget(2), sops.WithRunConcurrency(2))}
	if err := r.run("fig8"); err != nil {
		t.Fatal(err)
	}
	sp, err := specFor("fig8", sc, "test", 7)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := sweep.RunSpec(context.Background(), nil, sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := t.TempDir()
	if err := sops.WriteFigure(io.Discard, ref, fd); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(ref, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fig8.csv differs from the serial run of its spec")
	}
}

func TestRunnerFig2EndToEnd(t *testing.T) {
	dir := t.TempDir()
	r := runner{sc: experiment.TestScale(), seed: 1, out: dir}
	if err := r.run("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2.csv")); err != nil {
		t.Fatal("fig2.csv not written")
	}
}
