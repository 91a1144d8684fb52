package sweep

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/workpool"
)

// tinyScale keeps every equivalence pipeline at milliseconds: the sweep
// contract under test is scheduling-independence, not estimator quality.
func tinyScale() experiment.Scale {
	return experiment.Scale{M: 16, Steps: 20, RecordEvery: 10, Repeats: 2}
}

// runCounts counts a Runner's ProgressRunDone events by whether the run
// was restored from its checkpoint. count is the Runner's OnProgress; it
// is safe for concurrent use.
type runCounts struct{ restored, computed atomic.Int32 }

func (c *runCounts) count(ev experiment.ProgressEvent) {
	if ev.Kind != experiment.ProgressRunDone {
		return
	}
	if ev.FromCheckpoint {
		c.restored.Add(1)
	} else {
		c.computed.Add(1)
	}
}

func sameResults(t *testing.T, tag string, want, got []*experiment.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if len(want[i].MI) != len(got[i].MI) {
			t.Fatalf("%s: result %d has %d MI points, want %d", tag, i, len(got[i].MI), len(want[i].MI))
		}
		for j := range want[i].MI {
			if math.Float64bits(want[i].MI[j]) != math.Float64bits(got[i].MI[j]) {
				t.Fatalf("%s: result %d MI[%d] = %v, want %v (not bit-identical)",
					tag, i, j, got[i].MI[j], want[i].MI[j])
			}
		}
		for j := range want[i].Times {
			if want[i].Times[j] != got[i].Times[j] {
				t.Fatalf("%s: result %d time grid differs", tag, i)
			}
		}
	}
}

func sameFigure(t *testing.T, tag string, want, got *experiment.FigureData) {
	t.Helper()
	if len(want.Series) != len(got.Series) {
		t.Fatalf("%s: %d series, want %d", tag, len(got.Series), len(want.Series))
	}
	for s := range want.Series {
		if want.Series[s].Name != got.Series[s].Name {
			t.Fatalf("%s: series %d named %q, want %q", tag, s, got.Series[s].Name, want.Series[s].Name)
		}
		for j := range want.Series[s].Y {
			if math.Float64bits(want.Series[s].Y[j]) != math.Float64bits(got.Series[s].Y[j]) {
				t.Fatalf("%s: series %q Y[%d] = %v, want %v (not bit-identical)",
					tag, want.Series[s].Name, j, got.Series[s].Y[j], want.Series[s].Y[j])
			}
			if math.Float64bits(want.Series[s].X[j]) != math.Float64bits(got.Series[s].X[j]) {
				t.Fatalf("%s: series %q X[%d] differs", tag, want.Series[s].Name, j)
			}
		}
	}
}

// TestRunnerMatchesSerialSweep is the core equivalence contract: the
// concurrent budgeted Runner returns bit-identical results to the serial
// loop for every concurrency/budget setting.
func TestRunnerMatchesSerialSweep(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 1234)
	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	concs := []int{1, 2, 8}
	if testing.Short() {
		concs = []int{2}
	}
	for _, conc := range concs {
		r := &Runner{Concurrency: conc, Tokens: workpool.NewTokens(conc)}
		got, err := r.Sweep(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "conc="+string(rune('0'+conc)), want, got)
	}
}

// TestSweepDriversBitIdenticalAcrossSweepers pins the acceptance
// criterion on the real figure drivers: Figs. 8/9/10 produce identical
// curves through the serial reference and through Runners at several
// concurrency settings.
func TestSweepDriversBitIdenticalAcrossSweepers(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	sc := tinyScale()
	type driver struct {
		name string
		run  func(sw experiment.Sweeper) (*experiment.FigureData, error)
	}
	drivers := []driver{
		{"fig8", func(sw experiment.Sweeper) (*experiment.FigureData, error) {
			return experiment.Fig8TypeCountSweep(context.Background(), sw, sc, 2, 7)
		}},
		{"fig9", func(sw experiment.Sweeper) (*experiment.FigureData, error) {
			return experiment.Fig9CutoffSweep(context.Background(), sw, sc, 7)
		}},
		{"fig10", func(sw experiment.Sweeper) (*experiment.FigureData, error) {
			return experiment.Fig10TypesVsCutoff(context.Background(), sw, sc, 7)
		}},
	}
	for _, d := range drivers {
		want, err := d.run(experiment.SerialSweeper{})
		if err != nil {
			t.Fatal(err)
		}
		for _, conc := range []int{1, 2, 8} {
			r := &Runner{Concurrency: conc, Tokens: workpool.NewTokens(conc)}
			got, err := d.run(r)
			if err != nil {
				t.Fatal(err)
			}
			sameFigure(t, d.name, want, got)
		}
	}
}

// TestEstimatorComparisonBitIdenticalAcrossSweepers: the Sec. 5.3
// comparison returns the same estimates run serially and on a 3-token
// budget (timings are wall-clock and excluded).
func TestEstimatorComparisonBitIdenticalAcrossSweepers(t *testing.T) {
	want, err := experiment.EstimatorComparison(context.Background(), nil, 4, 80, 3, 0.5, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiment.EstimatorComparison(context.Background(), workpool.NewTokens(3), 4, 80, 3, 0.5, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range want.Rows {
		if math.Float64bits(want.Rows[i].Mean) != math.Float64bits(got.Rows[i].Mean) ||
			math.Float64bits(want.Rows[i].Std) != math.Float64bits(got.Rows[i].Std) ||
			math.Float64bits(want.Rows[i].RMSE) != math.Float64bits(got.Rows[i].RMSE) {
			t.Fatalf("row %q differs between serial and concurrent", want.Rows[i].Estimator)
		}
	}
}

// figureCSV renders a figure exactly as the CLIs write it, for
// byte-for-byte comparisons.
func figureCSV(t *testing.T, fd *experiment.FigureData) []byte {
	t.Helper()
	names := make([]string, len(fd.Series))
	xs := make([][]float64, len(fd.Series))
	ys := make([][]float64, len(fd.Series))
	for i, s := range fd.Series {
		names[i] = s.Name
		xs[i] = s.X
		ys[i] = s.Y
	}
	var buf bytes.Buffer
	if err := plot.WriteSeriesCSV(&buf, names, xs, ys); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeMidSweep interrupts a sweep after a prefix of its
// runs (the on-disk state a kill leaves behind) and checks the resumed
// sweep restores the completed runs from disk and reproduces the
// uninterrupted figure byte for byte.
func TestCheckpointResumeMidSweep(t *testing.T) {
	sc := tinyScale()
	const maxTypes, seed = 2, 41
	reference, err := experiment.Fig8TypeCountSweep(context.Background(), experiment.SerialSweeper{}, sc, maxTypes, seed)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	specs := experiment.Fig8Specs(sc, maxTypes, seed)
	half := len(specs) / 2
	if half == 0 {
		t.Fatal("need at least 2 specs")
	}
	// "Kill" after the first half: only those checkpoints exist.
	partial := &Runner{Concurrency: 2, Store: DirStore{Dir: dir}}
	if _, err := partial.Sweep(context.Background(), specs[:half]); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil || len(files) != half {
		t.Fatalf("checkpoint files = %v (err %v), want %d", files, err, half)
	}

	// Resume: the full sweep must restore the first half from disk.
	var n runCounts
	resume := &Runner{Concurrency: 2, Store: DirStore{Dir: dir}, OnProgress: n.count}
	resumed, err := experiment.Fig8TypeCountSweep(context.Background(), resume, sc, maxTypes, seed)
	if err != nil {
		t.Fatal(err)
	}
	if restored, computed := int(n.restored.Load()), int(n.computed.Load()); restored != half || computed != len(specs)-half {
		t.Fatalf("restored %d / computed %d, want %d / %d", restored, computed, half, len(specs)-half)
	}
	if !bytes.Equal(figureCSV(t, reference), figureCSV(t, resumed)) {
		t.Fatal("resumed sweep's figure differs from the uninterrupted one")
	}

	// A third pass over a complete checkpoint set computes nothing.
	n.restored.Store(0)
	n.computed.Store(0)
	again, err := experiment.Fig8TypeCountSweep(context.Background(), resume, sc, maxTypes, seed)
	if err != nil {
		t.Fatal(err)
	}
	if computed := n.computed.Load(); computed != 0 || int(n.restored.Load()) != len(specs) {
		t.Fatalf("second resume recomputed %d runs", computed)
	}
	if !bytes.Equal(figureCSV(t, reference), figureCSV(t, again)) {
		t.Fatal("fully-restored sweep differs")
	}
}

// TestCheckpointSurvivesFailedSweep: a sweep that errors mid-way keeps
// the checkpoints of the runs that completed, and re-running with the
// spec fixed resumes instead of restarting.
func TestCheckpointSurvivesFailedSweep(t *testing.T) {
	sc := tinyScale()
	specs := experiment.Fig8Specs(sc, 2, 17)
	dir := t.TempDir()

	broken := make([]experiment.SweepSpec, len(specs))
	copy(broken, specs)
	// M=2 with the default k=4 fails pipeline validation at Run time.
	broken[len(broken)-1].Pipeline.Ensemble.M = 2

	r := &Runner{Concurrency: 1, Store: DirStore{Dir: dir}}
	if _, err := r.Sweep(context.Background(), broken); err == nil {
		t.Fatal("broken spec did not fail the sweep")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if len(files) == 0 {
		t.Fatal("no checkpoints survived the failed sweep")
	}

	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after-failure-resume", want, got)
}

// TestCheckpointIgnoresStaleSpec: a checkpoint written for one spec must
// not be served for a modified spec (different seed ⇒ different
// fingerprint ⇒ different file), and corrupt checkpoint files are
// recomputed, not trusted.
func TestCheckpointIgnoresStaleSpec(t *testing.T) {
	sc := tinyScale()
	dir := t.TempDir()
	specs := experiment.Fig8Specs(sc, 1, 5)

	r := &Runner{Store: DirStore{Dir: dir}}
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	// Same IDs, different ensemble seed: must recompute, and must match
	// the serial run of the modified specs.
	modified := make([]experiment.SweepSpec, len(specs))
	copy(modified, specs)
	for i := range modified {
		modified[i].Pipeline.Ensemble.Seed += 1000
	}
	var n runCounts
	r2 := &Runner{Store: DirStore{Dir: dir}, OnProgress: n.count}
	got, err := r2.Sweep(context.Background(), modified)
	if err != nil {
		t.Fatal(err)
	}
	if fromCkpt := n.restored.Load(); fromCkpt != 0 {
		t.Fatalf("%d stale checkpoints were trusted", fromCkpt)
	}
	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), modified)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "modified-specs", want, got)

	// Corrupt every checkpoint: the next sweep must recompute cleanly.
	files, _ := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if len(files) == 0 {
		t.Fatal("no checkpoint files to corrupt")
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err = (&Runner{Store: DirStore{Dir: dir}}).Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	wantOrig, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "corrupt-recompute", wantOrig, got)
}

func TestSweepRejectsDuplicateIDsWhenCheckpointing(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 1, 5)
	specs = append(specs, specs[0])
	_, err := (&Runner{Store: DirStore{Dir: t.TempDir()}}).Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "unique") {
		t.Fatalf("duplicate IDs accepted: %v", err)
	}
}

// TestCheckpointedResultsAreTrimmed: with checkpointing on, computed and
// restored results are structurally identical — neither carries the
// observers or the raw ensemble.
func TestCheckpointedResultsAreTrimmed(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 1, 6)
	res, err := (&Runner{Store: DirStore{Dir: t.TempDir()}}).Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Observers != nil || r.Ensemble != nil {
			t.Fatal("checkpointed sweep results must not retain observers/ensembles")
		}
	}
	// Without checkpointing the observers stay available.
	res, err = (&Runner{}).Sweep(context.Background(), specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Observers == nil {
		t.Fatal("non-checkpointed sweep lost the observers")
	}
}
