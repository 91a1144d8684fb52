package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"

	sops "repro"
	"repro/internal/sweep"
)

// event is one progress event as the session's subscriber saw it.
type event struct {
	kind sops.ProgressKind
	run  string
	at   int64
}

// hooks observe one op from outside the program: progress events through
// Session.Subscribe, and the checkpoint store through a timedStore.
type hooks struct {
	mu     sync.Mutex
	events []event
	store  tracer
}

func (h *hooks) onEvent(ev sops.ProgressEvent) {
	at := now()
	h.mu.Lock()
	h.events = append(h.events, event{ev.Kind, ev.Run, at})
	h.mu.Unlock()
}

// timedStore records a span around every call into a ResultStore.
type timedStore struct {
	inner sops.ResultStore
	tr    *tracer
}

func (s *timedStore) Load(id string, fp uint64) (*sops.Result, bool) {
	t0 := now()
	res, ok := s.inner.Load(id, fp)
	s.tr.add(0, "sweep.store.load", id, t0, now())
	return res, ok
}

func (s *timedStore) Save(id string, fp uint64, res *sops.Result) error {
	t0 := now()
	err := s.inner.Save(id, fp, res)
	s.tr.add(0, "sweep.store.save", id, t0, now())
	return err
}

// runTiming brackets one executed sweep run by its store calls.
type runTiming struct {
	run                  string
	loadStart, saveStart int64
	end                  int64
}

// addRuns adds store spans under parent, grouping each run's load and
// save under a runSpan that covers its compute.
func addRuns(tr *tracer, parent int, spans []span) []runTiming {
	loads, saves := map[string]span{}, map[string]span{}
	for _, s := range spans {
		if s.Name == "sweep.store.save" {
			saves[s.Run] = s
		} else {
			loads[s.Run] = s
		}
	}
	var runs []runTiming
	for _, s := range spans {
		save, ok := saves[s.Run]
		if s.Name != "sweep.store.load" || !ok {
			if !ok {
				tr.add(parent, s.Name, s.Run, s.Start, s.End)
			}
			continue
		}
		id := tr.add(parent, runSpan, s.Run, s.Start, save.End)
		tr.add(id, s.Name, s.Run, s.Start, s.End)
		tr.add(id, save.Name, save.Run, save.Start, save.End)
		runs = append(runs, runTiming{run: s.Run, loadStart: s.Start, saveStart: save.Start, end: save.End})
	}
	return runs
}

// tracedRun is the --trace 1 run: one plain op, one op with hooks, and a
// stage-by-stage replay of the same specs.
func tracedRun(ctx context.Context, w workload, seed uint64) (result, error) {
	input, err := w.input(seed)
	if err != nil {
		return result{}, err
	}
	t := tally{want: reference(w, seed)}

	// The plain op, for the tracing overhead.
	e, cleanup, err := newEnv(w, false, nil)
	if err != nil {
		return result{}, err
	}
	p, err := setup(input, e)
	if err != nil {
		cleanup()
		return result{}, err
	}
	plain := timeOp(ctx, p, e)
	cleanup()
	t.check(plain.out.digest, plain.err)
	setups, err := timeSetups(input, w, setupReps)
	if err != nil {
		return result{}, err
	}

	// The hooked op.
	h := &hooks{}
	e, cleanup, err = newEnv(w, true, h.onEvent)
	if err != nil {
		return result{}, err
	}
	if w.sweep {
		e.store = &timedStore{inner: sops.DirStore{Dir: e.ckpt}, tr: &h.store}
	}
	if p, err = setup(input, e); err != nil {
		cleanup()
		return result{}, err
	}
	op := timeOp(ctx, p, e)
	ckptKB := float64(dirBytes(e.ckpt)) / 1000
	cleanup()
	t.check(op.out.digest, op.err)

	// The replay.
	rtr := &tracer{}
	root, endRoot := rtr.begin(0, "replay", w.name)
	st := &layerStats{}
	split := map[string]map[string]float64{}
	var replayDigest string
	if w.sweep {
		var fd *sops.FigureData
		if fd, err = sweep.RunSpec(ctx, &replaySweeper{tr: rtr, root: root, st: st, split: split}, p.sp); err == nil {
			replayDigest, err = figureDigest(fd)
		}
	} else {
		var res *sops.Result
		if res, _, err = replay(p.runs[0].Pipeline, rtr, root, p.sp.Name, st); err == nil {
			replayDigest = resultDigest(res)
		}
	}
	endRoot()
	t.check(replayDigest, err)
	identity := "bit-identical to both ops"
	if replayDigest != op.out.digest || replayDigest != plain.out.digest {
		identity = "DIFFERENT from the ops"
	}

	// The share row: the replay's spans for a pipeline; for a sweep, the
	// hooked op's store and remote spans with each run's compute split
	// by its replay.
	optr, runs := opTrace(h, op, w.procs > 1)
	shareSpans := rtr.snapshot()
	if w.sweep {
		shareSpans = optr.snapshot()
	}
	shares := layerShares(shareSpans, split)

	metrics := layerMetrics(st)
	for k, v := range sweepMetrics(h, op, runs, w, ckptKB) {
		metrics[k] = v
	}
	for _, l := range layers {
		metrics["share."+l] = metric{shares[l], "%"}
	}
	metrics["spec.setup_ms"] = metric{setupSeconds(setups) * 1000, "ms"}
	metrics["runtime.gc_cycles"] = metric{float64(op.use.gc), "count"}
	metrics["runtime.gc_pause_ms"] = metric{float64(op.use.pauseNs) / 1e6, "ms"}
	metrics["trace.run_s"] = metric{op.wall, "s"}
	metrics["trace.overhead_s"] = metric{op.wall - plain.wall, "s"}

	dir := filepath.Join(buildRoot, "trace")
	base := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := rtr.write(filepath.Join(dir, base+"-replay.json")); err != nil {
		return result{}, err
	}
	if err := optr.write(filepath.Join(dir, base+"-op.json")); err != nil {
		return result{}, err
	}
	var row []string
	for _, l := range layers {
		row = append(row, fmt.Sprintf("%s %.1f%%", l, shares[l]))
	}
	fmt.Printf("%s seed %d layer shares: %s\n", w.name, seed, strings.Join(row, " / "))
	fmt.Printf("%s seed %d: plain op %.3fs, traced op %.3fs, tracing overhead %+.3fs; replay %s\n",
		w.name, seed, plain.wall, op.wall, op.wall-plain.wall, identity)
	return t.result(metrics), nil
}

// opTrace assembles the hooked op's spans: the op, its runs with their
// store calls, and for a distributed sweep each worker's lifetime, spawn
// and result transfers plus the drain after the last result.
func opTrace(h *hooks, op measure, distributed bool) (*tracer, []runTiming) {
	tr := &tracer{}
	root := tr.add(0, "op", "", op.start, op.end)
	store := h.store.snapshot()
	if !distributed {
		return tr, addRuns(tr, root, store)
	}
	for _, s := range store {
		tr.add(root, s.Name, s.Run, s.Start, s.End)
	}
	done := map[string]int64{}
	var lastDone int64
	for _, ev := range h.events {
		if ev.kind == sops.ProgressRunDone {
			done[ev.run] = ev.at
			lastDone = max(lastDone, ev.at)
		}
	}
	var runs []runTiming
	for _, k := range op.kids {
		wid := tr.add(root, "remote.worker", "", k.spawn, min(k.exit, op.end))
		tr.add(wid, "remote.spawn", "", k.spawn, k.spawnEnd)
		kr := addRuns(tr, wid, k.report.Store)
		for _, r := range kr {
			if at, ok := done[r.run]; ok {
				tr.add(wid, "remote.result", r.run, r.end, at)
			}
		}
		runs = append(runs, kr...)
	}
	if lastDone > 0 {
		tr.add(root, "remote.drain", "", lastDone, op.end)
	}
	return tr, runs
}

// layerMetrics reports the replay's sim, observer/align and
// infotheory counters.
func layerMetrics(st *layerStats) map[string]metric {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var addSum float64
	for _, d := range st.addNs {
		addSum += d
	}
	estNs := float64(st.ksgNs + st.decomposeNs)
	return map[string]metric{
		"sim.steps":                  {float64(st.simSteps), "count"},
		"sim.busy_s":                 {float64(st.simNs) / 1e9, "s"},
		"sim.ns_per_particle_step":   {div(float64(st.simNs), float64(st.particleSteps)), "ns"},
		"observer.frames":            {float64(st.frames), "count"},
		"observer.add_s":             {addSum / 1e9, "s"},
		"observer.add_us_p50":        {percentile(st.addNs, 50) / 1e3, "us"},
		"observer.add_us_p99":        {percentile(st.addNs, 99) / 1e3, "us"},
		"align.icp_iters_per_frame":  {div(float64(st.icpIters), float64(st.frames)), "count"},
		"infotheory.estimates":       {float64(st.estimates), "count"},
		"infotheory.ksg_s":           {float64(st.ksgNs) / 1e9, "s"},
		"infotheory.decompose_s":     {float64(st.decomposeNs) / 1e9, "s"},
		"infotheory.ms_per_estimate": {div(estNs/1e6, float64(st.estimates)), "ms"},
	}
}

// sweepMetrics reports the experiment, sweep and remote metrics of the
// hooked op. Metrics of a layer the workload does not run are 0.
func sweepMetrics(h *hooks, op measure, runs []runTiming, w workload, ckptKB float64) map[string]metric {
	type runEvents struct{ firstEstimate, lastSample int64 }
	per := map[string]*runEvents{}
	var firstDone, lastDone int64
	var doneCount, forwarded float64
	for _, ev := range h.events {
		r := per[ev.run]
		if r == nil {
			r = &runEvents{}
			per[ev.run] = r
		}
		switch ev.kind {
		case sops.ProgressStepEstimated:
			if r.firstEstimate == 0 {
				r.firstEstimate = ev.at
			}
		case sops.ProgressSampleSimulated:
			r.lastSample = max(r.lastSample, ev.at)
		case sops.ProgressRunDone:
			doneCount++
			if firstDone == 0 {
				firstDone = ev.at
			}
			lastDone = max(lastDone, ev.at)
			continue
		}
		if w.procs > 1 {
			forwarded++
		}
	}
	// A pipeline is one run bracketed by the op itself.
	if !w.sweep {
		for name := range per {
			runs = append(runs, runTiming{run: name, loadStart: op.start, saveStart: op.end, end: op.end})
		}
	}
	var firstEst, tail, runS []float64
	for _, r := range runs {
		if ev := per[r.run]; ev != nil && ev.firstEstimate > 0 {
			firstEst = append(firstEst, float64(ev.firstEstimate-r.loadStart)/1e9)
			tail = append(tail, float64(r.saveStart-ev.lastSample)/1e9)
		}
		runS = append(runS, float64(r.end-r.loadStart)/1e9)
	}
	var loads, saves, loadNs, saveNs float64
	stores := [][]span{h.store.snapshot()}
	var spawnMs []float64
	for _, k := range op.kids {
		stores = append(stores, k.report.Store)
		spawnMs = append(spawnMs, float64(k.spawnEnd-k.spawn)/1e6)
	}
	for _, ss := range stores {
		for _, s := range ss {
			if s.Name == "sweep.store.load" {
				loads++
				loadNs += float64(s.dur())
			} else {
				saves++
				saveNs += float64(s.dur())
			}
		}
	}
	m := map[string]metric{
		"experiment.first_estimate_s": {median(firstEst), "s"},
		"experiment.tail_s":           {median(tail), "s"},
		"sweep.runs":                  {0, "count"},
		"sweep.store_loads":           {loads, "count"},
		"sweep.store_load_ms":         {loadNs / 1e6, "ms"},
		"sweep.store_saves":           {saves, "count"},
		"sweep.store_save_ms":         {saveNs / 1e6, "ms"},
		"sweep.checkpoint_kb":         {ckptKB, "kB"},
		"sweep.run_s_p50":             {0, "s"},
		"sweep.run_s_p75":             {0, "s"},
		"remote.spawn_ms":             {median(spawnMs), "ms"},
		"remote.progress_events":      {forwarded, "count"},
		"remote.first_result_s":       {0, "s"},
		"remote.drain_s":              {0, "s"},
	}
	if w.sweep {
		m["sweep.runs"] = metric{doneCount, "count"}
		m["sweep.run_s_p50"] = metric{percentile(runS, 50), "s"}
		m["sweep.run_s_p75"] = metric{percentile(runS, 75), "s"}
		m["remote.first_result_s"] = metric{float64(firstDone-op.start) / 1e9, "s"}
		m["remote.drain_s"] = metric{float64(op.end-lastDone) / 1e9, "s"}
	}
	return m
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	if dir == "" {
		return 0
	}
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, ierr := d.Info(); ierr == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
