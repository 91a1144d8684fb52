package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/sweep"
)

// fakeWorkerEnv makes a re-executed test binary act as a worker that
// exits late: it sleeps, burns CPU and allocates, then reports.
const fakeWorkerEnv = "PERFBENCH_FAKE_WORKER"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		os.Exit(workerMain(os.Args[2:]))
	}
	if os.Getenv(fakeWorkerEnv) != "" {
		time.Sleep(200 * time.Millisecond)
		burn := time.Now()
		var keep [][]byte
		for time.Since(burn) < 300*time.Millisecond {
			keep = append(keep, make([]byte, 1<<20))
			if len(keep) > 64 {
				keep = keep[:0]
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(readReport()); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to test scale, keeping its shape.
func tiny(w workload) workload {
	sc := experiment.Scale{M: 16, Steps: 20, RecordEvery: 10, Repeats: 2}
	switch w.name {
	case "fig4-pipeline":
		w.spec = func(seed uint64) (sops.Spec, error) {
			return sops.SpecFromPipeline(experiment.Fig4PipelineOf(sc, seed))
		}
	case "fig11-decomp":
		w.spec = func(seed uint64) (sops.Spec, error) {
			return sops.SpecFromPipeline(experiment.Fig11PipelineOf(sc, seed))
		}
	default:
		w.spec = func(seed uint64) (sops.Spec, error) {
			s, _ := sweep.LookupScenario("fig8")
			sp := s.Spec("test", seed)
			sp.MergeCLIOverrides("test", seed, sc.M, sc.Steps, sc.Repeats)
			return sp, nil
		}
	}
	return w
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runOnce sets up and runs one op of w at seed.
func runOnce(t *testing.T, w workload, seed uint64) measure {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	tmpRoot = t.TempDir()
	input, err := w.input(seed)
	if err != nil {
		t.Fatal(err)
	}
	e, cleanup, err := newEnv(w, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	p, err := setup(input, e)
	if err != nil {
		t.Fatal(err)
	}
	m := timeOp(context.Background(), p, e)
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m
}

func TestSeedIsTheOnlyInput(t *testing.T) {
	for _, w := range workloads {
		a, _ := w.input(3)
		b, _ := w.input(3)
		c, _ := w.input(4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 3 generated two different inputs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 3 and 4 generated the same input", w.name)
		}
	}
	for _, name := range []string{"fig11-decomp", "fig8-sweep"} {
		w := tiny(mustWorkload(t, name))
		d3, again, d4 := runOnce(t, w, 3).out.digest, runOnce(t, w, 3).out.digest, runOnce(t, w, 4).out.digest
		if d3 != again {
			t.Errorf("%s: seed 3 gave digests %s and %s", name, short(d3), short(again))
		}
		if d3 == d4 {
			t.Errorf("%s: seeds 3 and 4 gave the same digest %s", name, short(d3))
		}
	}
}

func TestPerturbedOutputIsCountedAsFailed(t *testing.T) {
	m := runOnce(t, tiny(mustWorkload(t, "fig11-decomp")), 1)
	res := m.out.res
	tl := tally{want: m.out.digest}
	if !tl.check(resultDigest(res), nil) || tl.failed != 0 {
		t.Fatalf("the unperturbed output failed: %+v", tl)
	}
	// One ULP in one decomposition term.
	w := &res.Decomp[len(res.Decomp)-1].Within[0]
	*w = math.Nextafter(*w, math.Inf(1))
	if tl.check(resultDigest(res), nil) || tl.failed != 1 || tl.attempted != 2 {
		t.Fatalf("a perturbed output was accepted: %+v", tl)
	}
	if r := tl.result(nil); r.Correct {
		t.Fatal("a run with a failed op reports correct")
	}

	fd := &sops.FigureData{Series: []sops.Series{{Name: "deltaI", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}}}
	want, _ := figureDigest(fd)
	fd.Series[0].Y[1] = math.Nextafter(0.25, 1)
	got, _ := figureDigest(fd)
	ft := tally{want: want}
	if ft.check(got, nil) || ft.failed != 1 {
		t.Fatal("a perturbed figure CSV was accepted")
	}
}

func TestReferencesCoverEverySeed(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(refs[w.ref]) != refSeeds {
			t.Errorf("%s: %d reference digests, want %d", w.name, len(refs[w.ref]), refSeeds)
		}
	}
	if testing.Short() {
		t.Skip("runs a quick-scale Fig. 4 pipeline")
	}
	w := mustWorkload(t, "fig4-pipeline")
	if got := runOnce(t, w, 21).out.digest; got != reference(w, 21) {
		t.Errorf("fig4-pipeline seed 21: digest %s, reference %s", short(got), short(reference(w, 21)))
	}
}

func TestTimedRunCyclesWholeWindows(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	tmpRoot = t.TempDir()
	// The tiny workload has no reference digests, so its ops count as
	// failed; only the number attempted is checked.
	w := tiny(mustWorkload(t, "fig11-decomp"))
	for _, budget := range []time.Duration{0, 300 * time.Millisecond} {
		res, err := timedRun(context.Background(), w, 1, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted == 0 || res.Attempted%window != 0 {
			t.Errorf("budget %v: %d ops, want whole cycles of %d inputs", budget, res.Attempted, window)
		}
	}
}

func TestSpeedScale(t *testing.T) {
	c := newCalibrator()
	if d := c.kthDistance(0); d <= 0 || math.IsInf(d, 0) {
		t.Fatalf("kth distance %v", d)
	}
	if p := c.pass(); p <= 0 {
		t.Fatalf("pass took %vs", p)
	}
	// Passes at the reference speed leave seconds as they are; passes
	// twice as slow halve them, and one stalled pass does not count.
	if s := speedScale([]float64{calRefSeconds, calRefSeconds, calRefSeconds}); s != 1 {
		t.Errorf("scale at the reference speed %v, want 1", s)
	}
	if s := speedScale([]float64{2 * calRefSeconds, 9, 2 * calRefSeconds}); s != 0.5 {
		t.Errorf("scale at half the reference speed %v, want 0.5", s)
	}
}

func TestLateWorkerIsCounted(t *testing.T) {
	t.Setenv(fakeWorkerEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pt := &procTree{exe: exe, args: func(int, string, int) []string { return []string{"-test.run=^$"} }}
	// The coordinator never waits for this worker: like Coordinator.Sweep
	// returning before its children are reaped.
	if _, err := pt.spawn(context.Background(), 0, "", 1); err != nil {
		t.Fatal(err)
	}
	kids, use, err := pt.wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 {
		t.Fatalf("%d workers reaped, want 1", len(kids))
	}
	if use.cpu < 0.2 {
		t.Errorf("worker CPU %.3fs not counted (it burned 0.3s)", use.cpu)
	}
	if use.alloc < 64<<20 || use.mallocs == 0 {
		t.Errorf("worker allocation not counted: %d bytes, %d objects", use.alloc, use.mallocs)
	}
	if use.rssKB == 0 {
		t.Error("worker peak RSS not counted")
	}
	if k := kids[0]; k.exit-k.spawn < int64(400*time.Millisecond) {
		t.Errorf("worker reaped %v after spawn, before it could have exited", time.Duration(k.exit-k.spawn))
	}
}

func TestDistributedMatchesInProcess(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("process accounting reads Linux rusage")
	}
	local := runOnce(t, tiny(mustWorkload(t, "fig8-sweep")), 5)
	dist := runOnce(t, tiny(mustWorkload(t, "fig8-sweep-procs2")), 5)
	if local.out.digest != dist.out.digest {
		t.Fatalf("procs2 figure %s, in-process %s", short(dist.out.digest), short(local.out.digest))
	}
	if len(dist.kids) != 2 {
		t.Fatalf("%d workers reaped, want 2", len(dist.kids))
	}
	for i, k := range dist.kids {
		if k.use.cpu <= 0 || k.use.mallocs == 0 {
			t.Errorf("worker %d unaccounted: %+v", i, k.use)
		}
	}
}

func TestSelfTimeAndShares(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.stream", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "infotheory.ksg", Start: 40, End: 70}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "observer.add", Start: 20, End: 30},
		{ID: 5, Parent: 2, Name: "probe.icp", Start: 30, End: 40},
		{ID: 6, Parent: 1, Name: "sweep.store.load", Start: 90, End: 120}, // past its parent's end
		{ID: 7, Parent: 1, Name: runSpan, Run: "r", Start: 70, End: 80},
	}
	want := map[int]int64{1: 100 - 60 - 10 - 10, 2: 40 - 20, 3: 30, 4: 10, 5: 10, 6: 30, 7: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	// The probe counts in no layer; the run's self time is split.
	shares := layerShares(spans, map[string]map[string]float64{"r": {"sim": 0.5, "estimate": 0.5}})
	total := 20.0 + 20 + 30 + 10 + 30 + 10
	wantShares := map[string]float64{
		"other": 20 / total, "sim": (20 + 5) / total, "estimate": (30 + 5) / total,
		"align": 10 / total, "store": 30 / total, "remote": 0,
	}
	for l, w := range wantShares {
		if math.Abs(shares[l]-100*w) > 1e-9 {
			t.Errorf("share %s = %.4f%%, want %.4f%%", l, shares[l], 100*w)
		}
	}
}
