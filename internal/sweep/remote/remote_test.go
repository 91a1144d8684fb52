package remote

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/forces"
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

// checkGoroutineBaseline fails the test unless the goroutine count falls
// back to base, sampled before the sweep, within five seconds: a pool's
// goroutines may still be unwinding after its WaitGroup released Sweep.
func checkGoroutineBaseline(t *testing.T, tag string, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive the sweep, %d before it", tag, runtime.NumGoroutine(), base)
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
	base := runtime.NumGoroutine()
	got, err := co.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutineBaseline(t, "after worker death", base)
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

// customScaling wraps a force law in a type the spec layer cannot
// serialise, as any Scaling outside F1 and F2 is.
type customScaling struct{ forces.Scaling }

// countingSpawn returns a GoSpawner that records the budget of every
// worker it starts. The coordinator spawns from Sweep's goroutine, so
// the slice is read safely once Sweep returns.
func countingSpawn(budgets *[]int) SpawnFunc {
	return func(ctx context.Context, i int, addr string, budget int) (func() error, error) {
		*budgets = append(*budgets, budget)
		return GoSpawner(WorkerOptions{})(ctx, i, addr, budget)
	}
}

// TestRunWithoutSpecFormFailsBeforeSpawning: every run the store does not
// resolve crosses to a worker as spec JSON, so a run whose pipeline has
// no spec form fails the sweep, naming the run, before any worker starts.
func TestRunWithoutSpecFormFailsBeforeSpawning(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 9)
	custom := &specs[1].Pipeline.Ensemble.Sim
	custom.Force = customScaling{custom.Force}
	var budgets []int
	co := &Coordinator{Procs: 2, Budget: 2, Spawn: countingSpawn(&budgets), Store: sweep.DirStore{Dir: t.TempDir()}}
	_, err := co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), specs[1].ID) {
		t.Fatalf("err = %v, want the run without a spec form named", err)
	}
	if len(budgets) != 0 {
		t.Fatalf("spawned %d workers, want none", len(budgets))
	}
}

// TestWorkersNeverHoldMoreThanTheBudget: the coordinator spawns at most
// one worker per token and splits the budget among them, the first
// budget mod workers holding one token more, so the workers together
// hold exactly the budget.
func TestWorkersNeverHoldMoreThanTheBudget(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 1, 3)
	for _, tc := range []struct {
		procs, budget int
		want          []int
	}{
		{procs: 4, budget: 2, want: []int{1, 1}},
		{procs: 2, budget: 5, want: []int{3, 2}},
		{procs: 0, budget: 3, want: []int{3}},
	} {
		var budgets []int
		co := &Coordinator{Procs: tc.procs, Budget: tc.budget, Spawn: countingSpawn(&budgets)}
		if _, err := co.Sweep(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(budgets, tc.want) {
			t.Errorf("Procs %d, Budget %d: spawned workers with budgets %v, want %v", tc.procs, tc.budget, budgets, tc.want)
		}
		sum := 0
		for _, b := range budgets {
			sum += b
		}
		if sum != tc.budget {
			t.Errorf("Procs %d, Budget %d: workers hold %d tokens, want the whole budget", tc.procs, tc.budget, sum)
		}
	}
}

// failingStore is the fault double of the checkpoint seam: its Save
// fails for one run and accepts every other, and its Load always misses.
type failingStore struct {
	id  string
	err error
}

func (s failingStore) Load(string, uint64) (*experiment.Result, bool) { return nil, false }

func (s failingStore) Save(id string, _ uint64, _ *experiment.Result) error {
	if id == s.id {
		return s.err
	}
	return nil
}

// TestFailingSaveSurfaces: a checkpoint that cannot be written fails the
// sweep with the store's error and the run's ID, in process and across a
// worker. The run reports no completion, the Runner leaves no goroutine
// behind, and a later sweep over a working store is unaffected.
func TestFailingSaveSurfaces(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 31)
	failing := failingStore{id: specs[1].ID, err: errors.New("disk full")}

	base := runtime.NumGoroutine()
	var failedDone atomic.Int32
	r := &sweep.Runner{Concurrency: 2, Store: failing, OnProgress: func(ev experiment.ProgressEvent) {
		if ev.Kind == experiment.ProgressRunDone && ev.Run == failing.id {
			failedDone.Add(1)
		}
	}}
	_, err := r.Sweep(context.Background(), specs)
	if !errors.Is(err, failing.err) || !strings.Contains(err.Error(), failing.id) {
		t.Fatalf("Runner err = %v, want %q naming run %s", err, failing.err, failing.id)
	}
	if n := failedDone.Load(); n != 0 {
		t.Fatalf("%d ProgressRunDone events for the run whose Save failed, want 0", n)
	}
	checkGoroutineBaseline(t, "Runner with a failing store", base)

	co := &Coordinator{Procs: 1, Budget: 2, Spawn: GoSpawner(WorkerOptions{Store: failing})}
	_, err = co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), failing.id) || !strings.Contains(err.Error(), failing.err.Error()) {
		t.Fatalf("Coordinator err = %v, want %q naming run %s", err, failing.err, failing.id)
	}
	checkGoroutineBaseline(t, "Coordinator with a failing store", base)

	want, err := experiment.SerialSweeper{}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	r.Store = sweep.DirStore{Dir: t.TempDir()}
	got, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "working store after a failed save", want, got)
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
			conn, err := dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			conn.Close() // connect, then die before serving anything
			return func() error { return nil }, nil
		},
	}
	base := runtime.NumGoroutine()
	_, err := co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "all workers exited") {
		t.Fatalf("err = %v, want all-workers-exited failure", err)
	}
	checkGoroutineBaseline(t, "all workers dead", base)
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
	base := runtime.NumGoroutine()
	_, err := co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "bad-run") {
		t.Fatalf("err = %v, want the failing run's ID surfaced", err)
	}
	checkGoroutineBaseline(t, "worker run error", base)
}

// TestResultWithoutPayloadIsDropped: a worker that answers a spec with a
// result frame carrying no result broke the protocol. The coordinator
// requeues the run and drops the connection, as for an unknown frame
// type, instead of dereferencing the missing payload; with no worker
// left, the sweep fails.
func TestResultWithoutPayloadIsDropped(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 1, 13)
	co := &Coordinator{
		Procs: 1,
		Spawn: func(ctx context.Context, i int, addr string, budget int) (func() error, error) {
			conn, err := dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			done := make(chan error, 1)
			go func() {
				defer conn.Close()
				w := newWire(conn)
				if _, err := w.recv(); err != nil {
					done <- err
					return
				}
				if err := w.send(&frame{Type: msgResult}); err != nil {
					done <- err
					return
				}
				_, err := w.recv() // returns once the coordinator drops us
				done <- err
			}()
			return func() error { return <-done }, nil
		},
	}
	_, err := co.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "all workers exited") {
		t.Fatalf("err = %v, want all-workers-exited failure", err)
	}
}

// TestServeTornFrameIsAnError: a coordinator that dies after a frame
// header has torn the frame; the worker must report it, not take it for
// the clean close that ends a sweep.
func TestServeTornFrameIsAnError(t *testing.T) {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "coord.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte{0, 0, 0, 200})
		conn.Close()
	}()
	if err := Serve(context.Background(), ln.Addr().String(), WorkerOptions{}); err == nil {
		t.Fatal("Serve returned nil after a torn frame")
	}
}

// progressKey is what the merged progress stream must preserve of an
// event.
type progressKey struct {
	Kind           experiment.ProgressKind
	Run            string
	Index          int
	FromCheckpoint bool
}

// countProgress returns a concurrency-safe OnProgress that counts each
// event into counts.
func countProgress(counts map[progressKey]int) func(experiment.ProgressEvent) {
	var mu sync.Mutex
	return func(ev experiment.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		counts[progressKey{ev.Kind, ev.Run, ev.Index, ev.FromCheckpoint}]++
	}
}

// TestMergedProgressMatchesRunner: the coordinator's merged progress
// stream carries the same multiset of events as an in-process Runner's
// for the same sweep, with exactly one ProgressRunDone per run. Only the
// order may differ.
func TestMergedProgressMatchesRunner(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 2718)
	want, got := map[progressKey]int{}, map[progressKey]int{}
	r := &sweep.Runner{Store: sweep.DirStore{Dir: t.TempDir()}, OnProgress: countProgress(want)}
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	co := &Coordinator{
		Procs:      2,
		Budget:     4,
		Spawn:      GoSpawner(WorkerOptions{Dir: dir}),
		Store:      sweep.DirStore{Dir: dir},
		OnProgress: countProgress(got),
	}
	if _, err := co.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("merged progress stream differs from the Runner's:\n got %v\nwant %v", got, want)
	}
	done := map[string]int{}
	for k, n := range got {
		if k.Kind == experiment.ProgressRunDone {
			done[k.Run] += n
		}
	}
	for _, ss := range specs {
		if done[ss.ID] != 1 {
			t.Errorf("run %s: %d ProgressRunDone events, want 1", ss.ID, done[ss.ID])
		}
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
	base := runtime.NumGoroutine()
	_, err := co.Sweep(ctx, specs)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled verbatim", err)
	}
	checkGoroutineBaseline(t, "cancelled sweep", base)
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
	base := runtime.NumGoroutine()
	got, err := co.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutineBaseline(t, "after SIGKILL", base)
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

// TestTruncatedCheckpointIsRecomputed: writeRunFile renames its temp file
// without an fsync, so after a host crash a short .run.gob at the final
// path is an expected state. A Runner and a Coordinator (through
// GoSpawner workers) sweeping a directory that holds one, cut to no
// bytes, to half or to all but its last byte, must recompute that run and
// resume the others, return results bit-identical to SerialSweeper's,
// leave the recomputed checkpoint whole, and leave no goroutine behind.
func TestTruncatedCheckpointIsRecomputed(t *testing.T) {
	ctx := context.Background()
	specs := experiment.Fig8Specs(tinyScale(), 2, 61)
	want, err := experiment.SerialSweeper{}.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	seeded := t.TempDir()
	if _, err := (&sweep.Runner{Store: sweep.DirStore{Dir: seeded}}).Sweep(ctx, specs); err != nil {
		t.Fatal(err)
	}
	victim := specs[1]
	fp, ok := spec.PipelineFingerprint(victim.ID, victim.Pipeline)
	if !ok {
		t.Fatal("test setup: the victim run has no fingerprint")
	}
	files, err := filepath.Glob(filepath.Join(seeded, "*.run.gob"))
	if err != nil || len(files) != len(specs) {
		t.Fatalf("test setup: %d checkpoints (%v), want %d", len(files), err, len(specs))
	}
	victimFile := filepath.Join(seeded, fmt.Sprintf("%s-%016x.run.gob", victim.ID, fp))
	whole, err := os.ReadFile(victimFile)
	if err != nil {
		t.Fatal(err)
	}

	sweepers := map[string]func(dir string, onProgress func(experiment.ProgressEvent)) experiment.Sweeper{
		"runner": func(dir string, onProgress func(experiment.ProgressEvent)) experiment.Sweeper {
			return &sweep.Runner{Concurrency: 2, Store: sweep.DirStore{Dir: dir}, OnProgress: onProgress}
		},
		"coordinator": func(dir string, onProgress func(experiment.ProgressEvent)) experiment.Sweeper {
			return &Coordinator{Procs: 1, Budget: 2, Spawn: GoSpawner(WorkerOptions{Dir: dir}),
				Store: sweep.DirStore{Dir: dir}, OnProgress: onProgress}
		},
	}
	for name, build := range sweepers {
		for _, keep := range []int{0, len(whole) / 2, len(whole) - 1} {
			dir := t.TempDir()
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if f == victimFile {
					b = b[:keep]
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tag := fmt.Sprintf("%s over a %d-byte prefix of a %d-byte checkpoint", name, keep, len(whole))

			base := runtime.NumGoroutine()
			counts := map[progressKey]int{}
			got, err := build(dir, countProgress(counts)).Sweep(ctx, specs)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sameResults(t, tag, want, got)
			for i, ss := range specs {
				fromCheckpoint := ss.ID != victim.ID
				if n := counts[progressKey{experiment.ProgressRunDone, ss.ID, i, fromCheckpoint}]; n != 1 {
					t.Fatalf("%s: run %s reported done %d times with FromCheckpoint = %v, want once", tag, ss.ID, n, fromCheckpoint)
				}
			}
			if res, hit := (sweep.DirStore{Dir: dir}).Load(victim.ID, fp); !hit {
				t.Fatalf("%s: the recomputed run's checkpoint does not load", tag)
			} else {
				sameResults(t, tag+", reloaded", want[1:2], []*experiment.Result{res})
			}
			checkGoroutineBaseline(t, tag, base)
		}
	}
}
