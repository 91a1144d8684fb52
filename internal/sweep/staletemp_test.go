package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRemoveStaleTemps pins the selection rule: only plain files named
// .tmp-run-* go; checkpoints, foreign files, and directories stay.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	keep := []string{
		"grid-0123456789abcdef.run.gob", // a completed checkpoint
		"notes.txt",                     // a foreign file
	}
	stale := []string{".tmp-run-1", ".tmp-run-xyz9"}
	for _, name := range append(append([]string{}, keep...), stale...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A directory matching the prefix is not a temp file; leave it.
	if err := os.Mkdir(filepath.Join(dir, ".tmp-run-dir"), 0o755); err != nil {
		t.Fatal(err)
	}

	n, err := RemoveStaleTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stale) {
		t.Errorf("removed %d temps, want %d", n, len(stale))
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp %s still present", name)
		}
	}
	for _, name := range append(keep, ".tmp-run-dir") {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("wanted to keep %s: %v", name, err)
		}
	}

	// Missing directory: nothing to do, no error.
	if n, err := RemoveStaleTemps(filepath.Join(dir, "nope")); err != nil || n != 0 {
		t.Errorf("missing dir: got (%d, %v), want (0, nil)", n, err)
	}
}

// TestStaleTempSweepSparesConcurrentWrites: every process that opens a
// checkpoint directory sweeps its temps (a remote worker does it at
// start), while siblings already running may be writing checkpoints
// there. Such a sweep removes a sibling's in-flight temp or meets one
// that was just renamed away; neither the sibling's write nor the sweep
// may fail for it. Sweepers sweep 15 times in all, once per process
// start in practice, and every checkpoint must read back.
func TestStaleTempSweepSparesConcurrentWrites(t *testing.T) {
	want, _ := checkpointFixture(t)
	dir := t.TempDir()
	const writers, writes, sweepers, sweeps = 4, 50, 3, 5
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, writers*writes+sweepers*sweeps)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < writes; k++ {
				errs <- writeRunFile(dir, fmt.Sprintf("run-%d-%d", w, k), ckptFP, want)
				once.Do(func() { close(started) })
			}
		}()
	}
	for s := 0; s < sweepers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-started
			for k := 0; k < sweeps; k++ {
				_, err := RemoveStaleTemps(dir)
				errs <- err
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < writes; k++ {
			if got, ok := readRunFile(dir, fmt.Sprintf("run-%d-%d", w, k), ckptFP); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("checkpoint run-%d-%d: ok=%v", w, k, ok)
			}
		}
	}
}
