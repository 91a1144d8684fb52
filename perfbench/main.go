// Command perfbench is the repository's end-to-end benchmark. Each run
// generates one workload's spec JSON from a seed, runs it through the
// public sops API exactly as sopfigures and sopsweep do, checks every
// output against the workload's committed reference digest, and prints
// its metrics as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig4-pipeline --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it repeats the timed op for --seconds and reports the
// end-to-end metrics (medians over ops, times scaled to a reference clock
// speed as calib.go describes). With --trace 1 it runs one plain
// op, one op with progress, store and spawn hooks, and a stage-by-stage
// replay of the same specs through the layers' exported functions, and
// reports the per-layer metrics, the layer-share row and the tracing
// overhead. Spans are written to .bench_build/trace/.
//
// -gen-refs recomputes refs.json, the reference digests of every workload
// (or only of --workload) at every input seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	sops "repro"
)

// buildRoot holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildRoot = ".bench_build"

// tmpRoot is relative on purpose: the coordinator's unix socket lives
// under TMPDIR, and a relative path stays within the socket path limit
// however deep the checkout is.
var tmpRoot = filepath.Join(buildRoot, "tmp")

// window is how many inputs a timed run cycles over: op i of a cycle runs
// input seed+i. The work of one input varies by up to ±20% with the random
// dynamics, so a run measures several inputs rather than one, and the
// window is fixed so that which inputs a run covers never depends on how
// fast the machine is.
const window = 3

// setupReps is how many set-ups a run times after each op. Set-up takes
// micro- to milliseconds, so it is sampled many times, and only after an
// op: set-ups timed during runtime start-up read up to 2x slower at
// random.
const setupReps = 32

// setupSeconds reduces the set-ups timed after one op to one figure: the
// fastest. Back-to-back set-ups run at one of two speeds about 2x apart,
// in streaks of tens to hundreds of milliseconds, while a spin loop timed
// between them holds steady; the share of slow samples changes from run to
// run, so their median lands on either speed, and in one run of 96 samples
// fewer than a tenth were fast. The fastest stays on the fast speed as
// long as one sample does, and still moves with any work added to set-up.
// A timed run reports the median of these figures over its ops.
func setupSeconds(samples []float64) float64 { return percentile(samples, 0) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		os.Exit(workerMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "seconds of timed ops")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run")
		genRefs = flag.Bool("gen-refs", false, "recompute refs.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fail(err)
	}
	// Child processes and the coordinator's socket directory stay inside
	// the build tree.
	os.Setenv("TMPDIR", tmpRoot)
	ctx := context.Background()
	if *genRefs {
		if err := writeRefs(ctx, "perfbench/refs.json", *name); err != nil {
			fail(err)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fail(err)
	}
	var res result
	if *trace == 1 {
		res, err = tracedRun(ctx, w, *seed)
	} else {
		res, err = timedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// tally counts ops against the reference digests.
type tally struct {
	want      string
	attempted int
	failed    int
}

// check records one op outcome; an error or a digest other than the
// reference counts as failed.
func (t *tally) check(digest string, err error) bool {
	t.attempted++
	if err != nil || digest != t.want {
		t.failed++
		if err == nil {
			err = fmt.Errorf("output digest %s, reference %s", short(digest), short(t.want))
		}
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		return false
	}
	return true
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func (t *tally) result(metrics map[string]metric) result {
	return result{Correct: t.attempted > 0 && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// timeSetups times n set-ups of one input and returns the seconds of
// each.
func timeSetups(input []byte, w workload, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		e, cleanup, err := newEnv(w, false, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, err = setup(input, e)
		out = append(out, time.Since(start).Seconds())
		cleanup()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newEnv makes one op's environment: a fresh checkpoint directory for
// sweeps and a fresh process tree for distributed ones.
func newEnv(w workload, traced bool, onEvent func(sops.ProgressEvent)) (env, func(), error) {
	e := env{w: w, onEvent: onEvent}
	cleanup := func() {}
	if w.sweep {
		dir, err := freshDir("ckpt-")
		if err != nil {
			return e, cleanup, err
		}
		e.ckpt = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	if w.procs > 1 {
		pt, err := newProcTree(e.ckpt, traced)
		if err != nil {
			cleanup()
			return e, func() {}, err
		}
		e.procs = pt
	}
	return e, cleanup, nil
}

// afterOp runs after every timed op: calPasses calibration passes, each
// followed by an equal share of setupReps set-ups, so that the set-ups
// sample several moments rather than one streak. It returns the op's
// speed scale and its fastest set-up in reference seconds.
func afterOp(c *calibrator, input []byte, w workload) (scale, setupS float64, err error) {
	var passes, ups []float64
	for i := 0; i < calPasses; i++ {
		passes = append(passes, c.pass())
		more, err := timeSetups(input, w, setupReps/calPasses)
		if err != nil {
			return 0, 0, err
		}
		ups = append(ups, more...)
	}
	scale = speedScale(passes)
	return scale, setupSeconds(ups) * scale, nil
}

// timedRun is the --trace 0 run: whole cycles over the window's inputs,
// each op followed by afterOp, until the next cycle would end past the
// deadline; at least one cycle. An op's times are scaled by the speed its
// calibration passes measured.
func timedRun(ctx context.Context, w workload, seed uint64, budget time.Duration) (result, error) {
	var t tally
	var runs, cpus, setups, raw, scales []float64
	var first []measure
	cal := newCalibrator()
	start := time.Now()
	for cycles := 0; cycles == 0 || time.Since(start)*time.Duration(cycles+1)/time.Duration(cycles) <= budget; cycles++ {
		for i := uint64(0); i < window; i++ {
			input, err := w.input(seed + i)
			if err != nil {
				return result{}, err
			}
			t.want = reference(w, seed+i)
			e, cleanup, err := newEnv(w, false, nil)
			if err != nil {
				return result{}, err
			}
			p, err := setup(input, e)
			if err != nil {
				cleanup()
				return result{}, err
			}
			m := timeOp(ctx, p, e)
			cleanup()
			scale, setupS, err := afterOp(cal, input, w)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, setupS)
			if t.check(m.out.digest, m.err) {
				m.out = output{} // keep no op's result alive into the next op
				runs = append(runs, m.wall*scale)
				cpus = append(cpus, m.use.cpu*scale)
				raw, scales = append(raw, m.wall), append(scales, scale)
				if cycles == 0 {
					first = append(first, m)
				}
			}
		}
	}
	// Times are medians over the ops of whole cycles, robust to a stall,
	// in reference seconds; the number of cycles changes only how many
	// samples they take. Memory and allocation vary with the input, not
	// with the machine, so they come from the first cycle: exactly the
	// window's inputs.
	var peak int64
	var alloc, mallocs float64
	for _, m := range first {
		peak = max(peak, m.use.rssKB)
		alloc += float64(m.use.alloc) / float64(len(first))
		mallocs += float64(m.use.mallocs) / float64(len(first))
	}
	metrics := map[string]metric{
		"run_s":       {median(runs), "s"},
		"cpu_s":       {median(cpus), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {float64(peak) * 1024 / 1e6, "MB"},
		"alloc_mb":    {alloc / 1e6, "MB"},
		"allocs":      {mallocs, "count"},
	}
	fmt.Printf("%s seed %d: %d ops, wall seconds %v, speed scales %v\n", w.name, seed, len(runs), raw, scales)
	return t.result(metrics), nil
}

// median of v; 0 for none.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v; 0 for none.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
