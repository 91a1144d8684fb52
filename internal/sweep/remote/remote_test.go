package remote

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// TestMain doubles as the worker executable for the process-level tests:
// re-execing the test binary with SOPS_WORKER_ADDR set runs a real
// worker process instead of the test suite, so worker death can be a
// real SIGKILL on a real process boundary.
func TestMain(m *testing.M) {
	if addr := os.Getenv("SOPS_WORKER_ADDR"); addr != "" {
		budget, _ := strconv.Atoi(os.Getenv("SOPS_WORKER_BUDGET"))
		err := Serve(context.Background(), addr, WorkerOptions{
			Budget: budget,
			Dir:    os.Getenv("SOPS_WORKER_DIR"),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyScale matches the sweep package's equivalence scale: milliseconds
// per run, the contract under test is scheduling-independence.
func tinyScale() experiment.Scale {
	return experiment.Scale{M: 16, Steps: 20, RecordEvery: 10, Repeats: 2}
}

// sameResults asserts bit-identical persisted payloads, the distributed
// acceptance bar: not close, identical.
func sameResults(t *testing.T, tag string, want, got []*experiment.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("%s: result %d is nil", tag, i)
		}
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
		if len(want[i].Labels) != len(got[i].Labels) {
			t.Fatalf("%s: result %d label count differs", tag, i)
		}
		for j := range want[i].Labels {
			if want[i].Labels[j] != got[i].Labels[j] {
				t.Fatalf("%s: result %d labels differ", tag, i)
			}
		}
		if math.Float64bits(want[i].EquilibratedFraction) != math.Float64bits(got[i].EquilibratedFraction) {
			t.Fatalf("%s: result %d equilibrated fraction differs", tag, i)
		}
	}
}

// TestDistributedMatchesSerial is the tentpole acceptance criterion:
// sharding a sweep across 1, 2 and 4 worker processes returns results
// bit-identical to the serial reference loop.
func TestDistributedMatchesSerial(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 1234)
	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	procs := []int{1, 2, 4}
	if testing.Short() {
		procs = []int{2}
	}
	for _, p := range procs {
		dir := t.TempDir()
		co := &Coordinator{
			Procs:  p,
			Budget: 4,
			Spawn:  GoSpawner(WorkerOptions{Dir: dir}),
			Store:  sweep.DirStore{Dir: dir},
		}
		got, err := co.Sweep(context.Background(), specs)
		if err != nil {
			t.Fatalf("procs=%d: %v", p, err)
		}
		sameResults(t, fmt.Sprintf("procs=%d", p), want, got)
	}
}

// TestDistributedFigureMatchesSerial runs a real figure driver through
// the coordinator: the driver cannot tell a Coordinator from a Runner.
func TestDistributedFigureMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	sc := tinyScale()
	want, err := experiment.Fig8TypeCountSweep(context.Background(), experiment.SerialSweeper{}, sc, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	co := &Coordinator{
		Procs:  2,
		Budget: 4,
		Spawn:  GoSpawner(WorkerOptions{Dir: dir}),
		Store:  sweep.DirStore{Dir: dir},
	}
	got, err := experiment.Fig8TypeCountSweep(context.Background(), co, sc, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Series) != len(got.Series) {
		t.Fatalf("%d series, want %d", len(got.Series), len(want.Series))
	}
	for s := range want.Series {
		for j := range want.Series[s].Y {
			if math.Float64bits(want.Series[s].Y[j]) != math.Float64bits(got.Series[s].Y[j]) {
				t.Fatalf("series %q Y[%d] = %v, want %v", want.Series[s].Name, j, got.Series[s].Y[j], want.Series[s].Y[j])
			}
		}
	}
}

// TestWorkerDeathRequeuesAndResumes kills a worker between checkpointing
// a run and answering for it: the coordinator must requeue the run to
// the surviving worker, which resumes from the shared store instead of
// recomputing. Worker 1 connects late, so worker 0 deterministically
// receives the first two specs and dies on the second.
func TestWorkerDeathRequeuesAndResumes(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 3, 99)
	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var died atomic.Bool
	spawn := func(ctx context.Context, i int, addr string, budget int) (func() error, error) {
		o := WorkerOptions{Budget: budget, Dir: dir}
		if i == 0 {
			o.dieAfterRuns = 1
		}
		done := make(chan error, 1)
		go func() {
			if i == 1 {
				time.Sleep(200 * time.Millisecond)
			}
			err := Serve(ctx, addr, o)
			if errors.Is(err, errWorkerDied) {
				died.Store(true)
				err = nil
			}
			done <- err
		}()
		return func() error { return <-done }, nil
	}
	var mu sync.Mutex
	resumed := 0
	co := &Coordinator{
		Procs:  2,
		Budget: 4,
		Spawn:  spawn,
		Store:  sweep.DirStore{Dir: dir},
		OnProgress: func(ev experiment.ProgressEvent) {
			if ev.Kind == experiment.ProgressRunDone && ev.FromCheckpoint {
				mu.Lock()
				resumed++
				mu.Unlock()
			}
		},
	}
	got, err := co.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after worker death", want, got)
	if !died.Load() {
		t.Fatal("worker 0 never exercised the death hook")
	}
	if resumed == 0 {
		t.Fatal("the requeued run recomputed instead of resuming from the dead worker's checkpoint")
	}
}

// TestCoordinatorResumesWithoutSpawning: a sweep whose runs are all in
// the store completes from the coordinator's pre-dispatch pass — no
// worker is ever spawned, the process-boundary analogue of the
// checkpoint fast path.
func TestCoordinatorResumesWithoutSpawning(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 7)
	dir := t.TempDir()
	first := &Coordinator{
		Procs:  2,
		Budget: 4,
		Spawn:  GoSpawner(WorkerOptions{Dir: dir}),
		Store:  sweep.DirStore{Dir: dir},
	}
	want, err := first.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	var spawns atomic.Int32
	second := &Coordinator{
		Procs: 2,
		Spawn: func(ctx context.Context, i int, addr string, budget int) (func() error, error) {
			spawns.Add(1)
			return GoSpawner(WorkerOptions{Dir: dir})(ctx, i, addr, budget)
		},
		Store: sweep.DirStore{Dir: dir},
	}
	got, err := second.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("resume spawned %d workers, want 0", n)
	}
	sameResults(t, "store resume", want, got)
}

// TestWorkerStartupSweepsStaleTemps: a killed sibling's .tmp-run-*
// remnants must be cleaned by whichever process next opens the dir —
// including a worker, which may be the only process that ever opens it.
func TestWorkerStartupSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-run-12345")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	specs := experiment.Fig8Specs(tinyScale(), 1, 3)
	co := &Coordinator{
		Procs:  1,
		Budget: 2,
		Spawn:  GoSpawner(WorkerOptions{Dir: dir}),
	}
	if _, err := co.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp %s survived worker startup", stale)
	}
}

// TestAllWorkersDeadFails: when every worker exits with runs still
// outstanding, the sweep must fail loudly instead of hanging.
func TestAllWorkersDeadFails(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 5)
	co := &Coordinator{
		Procs: 2,
		Spawn: func(ctx context.Context, i int, addr string, budget int) (func() error, error) {
			conn, err := Dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			conn.Close() // connect, then die before serving anything
			return func() error { return nil }, nil
		},
	}
	_, err := co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "all workers exited") {
		t.Fatalf("err = %v, want all-workers-exited failure", err)
	}
}

// TestWorkerRunErrorSurfaces: a run that fails on the worker for a
// reason of its own must abort the sweep with the run's ID and reason —
// the satellite error-masking fix extended across the process boundary.
func TestWorkerRunErrorSurfaces(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 1, 11)
	specs[0].Pipeline.K = 64 // k >= m: rejected by worker-side validation
	specs[0].ID = "bad-run"
	co := &Coordinator{
		Procs:  1,
		Budget: 2,
		Spawn:  GoSpawner(WorkerOptions{}),
	}
	_, err := co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "bad-run") {
		t.Fatalf("err = %v, want the failing run's ID surfaced", err)
	}
}

// TestCancelReturnsContextError: the coordinator honours the Runner's
// cancellation contract — the context's error comes back verbatim.
func TestCancelReturnsContextError(t *testing.T) {
	specs := experiment.Fig8Specs(experiment.Scale{M: 16, Steps: 200, RecordEvery: 10, Repeats: 2}, 3, 21)
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		Procs:  2,
		Budget: 2,
		Spawn:  GoSpawner(WorkerOptions{}),
		OnProgress: func(ev experiment.ProgressEvent) {
			cancel() // first event from any worker: pull the plug
		},
	}
	_, err := co.Sweep(ctx, specs)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled verbatim", err)
	}
}

// TestWireSpecFingerprintRoundTrip pins the property distribution rests
// on: serializing a sweep spec to canonical JSON and rebuilding it in
// another process yields the same pipeline fingerprint byte-for-byte, so
// coordinator and workers key the shared store identically.
func TestWireSpecFingerprintRoundTrip(t *testing.T) {
	for _, ss := range experiment.Fig8Specs(tinyScale(), 3, 77) {
		want, ok := spec.PipelineFingerprint(ss.ID, ss.Pipeline)
		if !ok {
			t.Fatalf("%s: not fingerprintable", ss.ID)
		}
		sp, err := spec.FromPipeline(ss.Pipeline)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := spec.Parse(b, "wire")
		if err != nil {
			t.Fatal(err)
		}
		p, err := back.Pipeline()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := spec.PipelineFingerprint(ss.ID, p)
		if !ok || got != want {
			t.Fatalf("%s: fingerprint %016x after wire round-trip, want %016x", ss.ID, got, want)
		}
	}
}

// TestProcessWorkerSIGKILL is the real thing: workers as separate
// processes (the re-exec'd test binary), one SIGKILLed mid-sweep, and
// the surviving worker must carry the sweep to results bit-identical to
// the serial reference.
func TestProcessWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	specs := experiment.Fig8Specs(tinyScale(), 3, 42)
	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var mu sync.Mutex
	var procs []*os.Process
	spawn := func(ctx context.Context, i int, addr string, budget int) (func() error, error) {
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(),
			"SOPS_WORKER_ADDR="+addr,
			"SOPS_WORKER_BUDGET="+strconv.Itoa(budget),
			"SOPS_WORKER_DIR="+dir,
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		mu.Lock()
		procs = append(procs, cmd.Process)
		mu.Unlock()
		return func() error { return cmd.Wait() }, nil
	}
	var killOnce sync.Once
	co := &Coordinator{
		Procs:  2,
		Budget: 4,
		Spawn:  spawn,
		Store:  sweep.DirStore{Dir: dir},
		OnProgress: func(ev experiment.ProgressEvent) {
			if ev.Kind != experiment.ProgressRunDone {
				return
			}
			killOnce.Do(func() {
				// First result is in: SIGKILL one real worker process
				// mid-sweep.
				mu.Lock()
				defer mu.Unlock()
				if len(procs) > 0 {
					procs[0].Kill()
				}
			})
		},
	}
	got, err := co.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after SIGKILL", want, got)
}

// A peer that sends a frame header claiming most of the cap and then
// dies must not make the reader allocate the claimed length: recv fails,
// having allocated about one read chunk.
func TestRecvTruncatedFrameAllocatesAsBytesArrive(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 48<<20)
		client.Write(hdr[:])
		client.Write(make([]byte, 10))
		client.Close()
	}()
	w := newWire(server)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := w.recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("recv of a truncated frame succeeded")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("recv of a 10-byte truncated frame allocated %d bytes, want < 1 MiB", grown)
	}
}
