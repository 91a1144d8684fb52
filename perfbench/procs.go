package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"

	sops "repro"
)

// workerArg as the first argument puts the benchmark binary into sweep
// worker mode: the benchmark spawns its own workers so that it can account
// for each one's CPU, memory and allocations.
const workerArg = "sweep-worker"

// workerReport is what a worker prints to its standard output at exit;
// its CPU time comes from the kernel when the worker is reaped.
type workerReport struct {
	PeakRSSKB  int64  `json:"peak_rss_kb"`
	TotalAlloc uint64 `json:"total_alloc"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
	PauseNs    uint64 `json:"pause_ns"`
	// Store holds the worker's store spans when it ran traced.
	Store []span `json:"store,omitempty"`
}

// usage is the resource use of a set of processes.
type usage struct {
	cpu     float64 // user + system seconds
	rssKB   int64   // sum of the processes' peak resident sets
	alloc   uint64  // Go heap bytes allocated
	mallocs uint64  // Go heap objects allocated
	gc      uint32
	pauseNs uint64
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.rssKB += o.rssKB
	u.alloc += o.alloc
	u.mallocs += o.mallocs
	u.gc += o.gc
	u.pauseNs += o.pauseNs
}

// child is one reaped worker.
type child struct {
	use         usage
	report      workerReport
	spawn, exit int64 // wall clock around SpawnFunc's start and at reaping
	spawnEnd    int64
	err         error
}

// procTree spawns sweep workers by re-executing the benchmark binary and
// reaps them itself, so a worker that outlives Coordinator.Sweep is still
// accounted: wait returns only once every spawned child has exited.
type procTree struct {
	exe  string
	args func(i int, addr string, budget int) []string

	wg   sync.WaitGroup
	mu   sync.Mutex
	kids []child
}

func newProcTree(ckptDir string, traced bool) (*procTree, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving the worker executable: %w", err)
	}
	return &procTree{exe: exe, args: func(_ int, addr string, budget int) []string {
		return []string{workerArg, "-addr", addr, "-budget", strconv.Itoa(budget),
			"-checkpoint", ckptDir, "-trace", strconv.FormatBool(traced)}
	}}, nil
}

// spawn implements sops.SweepSpawnFunc.
func (pt *procTree) spawn(ctx context.Context, i int, addr string, budget int) (func() error, error) {
	start := now()
	cmd := exec.CommandContext(ctx, pt.exe, pt.args(i, addr, budget)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	started := now()
	done := make(chan error, 1)
	pt.wg.Add(1)
	go func() {
		defer pt.wg.Done()
		err := cmd.Wait()
		c := child{spawn: start, spawnEnd: started, exit: now(), err: err}
		if st := cmd.ProcessState; st != nil {
			c.use.cpu = (st.UserTime() + st.SystemTime()).Seconds()
		}
		if jerr := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &c.report); jerr != nil && err == nil {
			c.err = fmt.Errorf("worker %d report: %w", i, jerr)
		}
		c.use.rssKB, c.use.alloc, c.use.mallocs = c.report.PeakRSSKB, c.report.TotalAlloc, c.report.Mallocs
		c.use.gc, c.use.pauseNs = c.report.NumGC, c.report.PauseNs
		pt.mu.Lock()
		pt.kids = append(pt.kids, c)
		pt.mu.Unlock()
		done <- err
	}()
	return func() error { return <-done }, nil
}

// wait blocks until every spawned worker has been reaped and returns them
// with their summed usage.
func (pt *procTree) wait() ([]child, usage, error) {
	pt.wg.Wait()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var total usage
	var errs []error
	for _, c := range pt.kids {
		total.add(c.use)
		errs = append(errs, c.err)
	}
	return append([]child(nil), pt.kids...), total, errors.Join(errs...)
}

// workerMain is the worker mode: serve one distributed sweep, then report
// this process's allocation and GC totals on standard output.
func workerMain(args []string) int {
	fs := flag.NewFlagSet(workerArg, flag.ContinueOnError)
	addr := fs.String("addr", "", "coordinator socket")
	budget := fs.Int("budget", 1, "worker tokens")
	dir := fs.String("checkpoint", "", "shared checkpoint directory")
	traced := fs.Bool("trace", false, "record store spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	opts := sops.SweepWorkerOptions{Budget: *budget, Dir: *dir}
	var st *timedStore
	if *traced {
		st = &timedStore{inner: sops.DirStore{Dir: *dir}, tr: &tracer{}}
		opts.Store = st
	}
	err := sops.ServeSweepWorker(context.Background(), *addr, opts)
	rep := readReport()
	if st != nil {
		rep.Store = st.tr.snapshot()
	}
	if jerr := json.NewEncoder(os.Stdout).Encode(rep); jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", jerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// readReport reads this process's peak RSS and lifetime allocation and
// GC totals.
func readReport() workerReport {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return workerReport{PeakRSSKB: peakRSSKB(), TotalAlloc: ms.TotalAlloc, Mallocs: ms.Mallocs, NumGC: ms.NumGC, PauseNs: ms.PauseTotalNs}
}
