package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// gomaxprocs is pinned so the benchmark measures the same scheduler on
// every host; in-process workloads hold one worker token, so only the
// procs2 workload keeps two cores busy.
const gomaxprocs = 2

// errCaptured stops a scenario after it has built its run list.
var errCaptured = errors.New("specs captured")

// captureSweeper records the runs a scenario hands its sweeper instead of
// running them.
type captureSweeper struct{ specs []experiment.SweepSpec }

func (c *captureSweeper) Sweep(_ context.Context, specs []experiment.SweepSpec) ([]*experiment.Result, error) {
	c.specs = specs
	return nil, errCaptured
}

func (c *captureSweeper) Do(context.Context, int, func(worker, i int) error) error {
	return errCaptured
}

// runSpecs resolves a spec into the runs it executes.
func runSpecs(sp spec.Spec) ([]experiment.SweepSpec, error) {
	if sp.Kind() == spec.KindRun {
		p, err := sp.Pipeline()
		if err != nil {
			return nil, err
		}
		return []experiment.SweepSpec{{ID: sp.Name, Pipeline: p}}, nil
	}
	var c captureSweeper
	if _, err := sweep.RunSpec(context.Background(), &c, sp); !errors.Is(err, errCaptured) {
		return nil, fmt.Errorf("resolving the runs of %q: %v", sp.Name, err)
	}
	return c.specs, nil
}

// env is one op's session configuration.
type env struct {
	w       workload
	ckpt    string // checkpoint directory; sweeps only
	store   sops.ResultStore
	procs   *procTree
	onEvent func(sops.ProgressEvent)
}

// prepared is a session ready to run one op: spec.Parse with its
// validation, every run fingerprinted, and NewSession with its stale-temp
// sweep. Its construction is what setup_s times.
type prepared struct {
	sp      sops.Spec
	runs    []experiment.SweepSpec
	session *sops.Session
}

func setup(input []byte, e env) (*prepared, error) {
	sp, err := sops.ParseSpec(input, e.w.name)
	if err != nil {
		return nil, err
	}
	runs, err := runSpecs(sp)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		if _, ok := spec.PipelineFingerprint(r.ID, r.Pipeline); !ok {
			return nil, fmt.Errorf("run %q has no fingerprint", r.ID)
		}
	}
	budget := 1
	if e.w.procs > 1 {
		budget = e.w.procs // one token per worker process
	}
	opts := []sops.SessionOption{sops.WithWorkerBudget(budget), sops.WithRunConcurrency(1)}
	if e.w.sweep {
		opts = append(opts, sops.WithCheckpointDir(e.ckpt))
	}
	if e.store != nil {
		opts = append(opts, sops.WithResultStore(e.store))
	}
	if e.w.procs > 1 {
		opts = append(opts, sops.WithWorkerProcs(e.w.procs, e.procs.spawn))
	}
	return &prepared{sp: sp, runs: runs, session: sops.NewSession(opts...)}, nil
}

// output is what one op produced.
type output struct {
	digest string
	res    *sops.Result // pipelines only
}

// run executes the op exactly as the CLIs do: Session.Run for a
// single-run spec (sopfigures fig4/fig11), Session.Figure for a scenario
// (sopsweep -scenario).
func (p *prepared) run(ctx context.Context, e env) (output, error) {
	if e.onEvent != nil {
		defer p.session.Subscribe(e.onEvent)()
	}
	if !e.w.sweep {
		res, err := p.session.Run(ctx, p.sp)
		if err != nil {
			return output{}, err
		}
		return output{digest: resultDigest(res), res: res}, nil
	}
	fd, err := p.session.Figure(ctx, p.sp)
	if err != nil {
		return output{}, err
	}
	d, err := figureDigest(fd)
	return output{digest: d}, err
}

// resultDigest hashes the bits of a pipeline's MI curve and, when
// present, of its decomposition.
func resultDigest(res *sops.Result) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, v := range res.MI {
		binary.Write(h, binary.LittleEndian, int64(res.Times[i]))
		put(v)
	}
	for _, d := range res.Decomp {
		put(d.Between)
		for _, w := range d.Within {
			put(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// figureDigest hashes the figure's CSV bytes as sopsweep writes them.
func figureDigest(fd *sops.FigureData) (string, error) {
	names := make([]string, len(fd.Series))
	xs := make([][]float64, len(fd.Series))
	ys := make([][]float64, len(fd.Series))
	for i, s := range fd.Series {
		names[i], xs[i], ys[i] = s.Name, s.X, s.Y
	}
	var buf bytes.Buffer
	if err := plot.WriteSeriesCSV(&buf, names, xs, ys); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// measure is the resource use of one op.
type measure struct {
	wall       float64 // seconds
	start, end int64   // wall clock, Unix ns
	use        usage
	out        output
	err        error
	kids       []child
}

// cpuSeconds reads this process's user plus system CPU seconds.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSKB reads this process's own resident-set high-water mark,
// VmHWM. ru_maxrss is no substitute: exec carries the resident set the
// parent had when it forked this process into it.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// timeOp runs one prepared op and reads its metrics once every worker
// process it spawned has exited.
func timeOp(ctx context.Context, p *prepared, e env) measure {
	// Start every op from a collected heap with the freed pages returned,
	// so pages an earlier op left behind do not raise this op's peak RSS.
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	out, err := p.run(ctx, e)
	end := time.Now()
	wall := end.Sub(start).Seconds()
	cpu1, rss := cpuSeconds(), peakRSSKB()
	runtime.ReadMemStats(&ms1)
	m := measure{wall: wall, start: start.UnixNano(), end: end.UnixNano(), out: out, err: err, use: usage{
		cpu:     cpu1 - cpu0,
		rssKB:   rss,
		alloc:   ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		gc:      ms1.NumGC - ms0.NumGC,
		pauseNs: ms1.PauseTotalNs - ms0.PauseTotalNs,
	}}
	if e.procs != nil {
		kids, use, werr := e.procs.wait()
		m.kids = kids
		m.use.add(use)
		if m.err == nil && werr != nil {
			m.err = werr
		}
	}
	return m
}

// freshDir makes a fresh directory under the benchmark's build tree.
func freshDir(pattern string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, pattern)
}
