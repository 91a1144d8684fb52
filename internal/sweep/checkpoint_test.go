package sweep

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/infotheory"
)

const ckptID, ckptFP = "fig8-l2-rep0", 0x0123456789abcdef

// checkpointFixture writes a run whose every persisted field is set,
// approximate-tier error bars and decomposition included, and returns
// the result and the file's bytes.
func checkpointFixture(tb testing.TB) (*experiment.Result, []byte) {
	tb.Helper()
	res := &experiment.Result{
		Name:     "fig8",
		Times:    []int{0, 10, 20},
		MI:       []float64{0.5, 1.25, 2},
		MIStdErr: []float64{0.01, 0.02, 0.03},
		Decomp: []infotheory.Decomposition{
			{Between: 0.25, Within: []float64{0.125, 0.125}},
			{Between: 0.5, Within: []float64{0.25, 0.5}},
			{Between: 1, Within: []float64{0.5, 0.5}},
		},
		Entropies: []infotheory.EntropyProfile{
			{Joint: 3, MarginalSum: 3.5},
			{Joint: 2.75, MarginalSum: 4},
			{Joint: 2.5, MarginalSum: 4.5},
		},
		Labels:               []int{0, 1, 1, 0},
		EquilibratedFraction: 0.75,
	}
	dir := tb.TempDir()
	if err := writeRunFile(dir, ckptID, ckptFP, res); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(runFilePath(dir, ckptID, ckptFP))
	if err != nil {
		tb.Fatal(err)
	}
	return res, data
}

// A kill cannot leave a trusted half-file: every strict prefix of a
// valid checkpoint reads as no checkpoint, and the whole file restores
// the run it holds.
func TestCheckpointPrefixesAreNotTrusted(t *testing.T) {
	want, data := checkpointFixture(t)
	dir := t.TempDir()
	path := runFilePath(dir, ckptID, ckptFP)
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := readRunFile(dir, ckptID, ckptFP); ok {
			t.Fatalf("a %d-byte prefix of a %d-byte checkpoint was trusted", n, len(data))
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := readRunFile(dir, ckptID, ckptFP)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("whole checkpoint: ok=%v, restored %+v, want %+v", ok, got, want)
	}
}

// FuzzReadRunFile reads arbitrary bytes as a run's checkpoint file.
// Whatever is on disk, readRunFile must not panic, and it must never
// report a checkpoint without a result.
func FuzzReadRunFile(f *testing.F) {
	_, data := checkpointFixture(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	dir := f.TempDir()
	path := runFilePath(dir, ckptID, ckptFP)
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, ok := readRunFile(dir, ckptID, ckptFP); ok && res == nil {
			t.Fatal("readRunFile reported a checkpoint with a nil result")
		}
	})
}
