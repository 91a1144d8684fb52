package main

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/align"
	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/observer"
	"repro/internal/sim"
	"repro/internal/vec"
)

// layerStats accumulates the per-layer counters of stage-by-stage
// replays.
type layerStats struct {
	simSteps      int64 // integrator steps, all samples
	particleSteps int64
	simNs         int64 // inside StreamSamples, minus visitor time
	frames        int   // Accumulator.Add calls
	addNs         []float64
	icpIters      int64
	estimates     int // KSG evaluations, Decompose's included
	ksgNs         int64
	decomposeNs   int64
}

// replay runs one pipeline stage by stage and serially through the
// layers' exported functions: sim.StreamSamples feeding an
// observer.Accumulator, then Engine.MultiInfoKSGVariant and Decompose per
// recorded step. Its result is bit-identical to Pipeline.RunCtx's. It
// returns the fractions of its time spent simulating, aligning and
// estimating.
func replay(p experiment.Pipeline, tr *tracer, parent int, run string, st *layerStats) (*experiment.Result, map[string]float64, error) {
	variant, ok := p.Estimator.KSGVariant()
	if !ok || p.Tier == experiment.TierApprox || p.TrackEntropies || !p.Observer.Streamable() {
		return nil, nil, fmt.Errorf("replay of %q: only exact KSG pipelines with streamed alignment are replayed", run)
	}
	k := p.K
	if k == 0 {
		k = experiment.DefaultKSGK
	}
	ec, err := p.Ensemble.Normalized()
	if err != nil {
		return nil, nil, err
	}
	ec.Workers, ec.Tokens = 1, nil
	times := sim.RecordedSteps(ec.Steps, ec.RecordEvery)
	types := ec.Sim.Types
	acc, err := observer.NewAccumulator(ec.M, times, types, p.Observer)
	if err != nil {
		return nil, nil, err
	}

	var simNs, alignNs, estNs int64
	// stream times one StreamSamples call; the visitor's spans are its
	// children, so the call's self time is the simulator's.
	stream := func(lo, hi int, visit func(id int, f sim.Frame) error) error {
		id, end := tr.begin(parent, "sim.stream", run)
		var visitNs int64
		t0 := now()
		_, err := sim.StreamSamples(ec, lo, hi, func(f sim.Frame) error {
			v0 := now()
			err := visit(id, f)
			visitNs += now() - v0
			return err
		})
		end()
		simNs += now() - t0 - visitNs
		return err
	}
	timed := func(parent int, name string, fn func() error) (int64, error) {
		t0 := now()
		err := fn()
		t1 := now()
		tr.add(parent, name, run, t0, t1)
		alignNs += t1 - t0
		return t1 - t0, err
	}

	// The reference sample, whose centred frames ICP aligns against.
	refs := make([][]vec.Vec2, len(times))
	err = stream(0, 1, func(id int, f sim.Frame) error {
		refs[f.Index] = append([]vec.Vec2(nil), f.Pos...)
		vec.Center(refs[f.Index])
		_, err := timed(id, "observer.seed", func() error { return acc.SeedReference(f.Index, f.Pos) })
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := timed(parent, "observer.finish", acc.FinishReference); err != nil {
		return nil, nil, err
	}
	var al align.Aligner
	err = stream(1, ec.M, func(id int, f sim.Frame) error {
		d, err := timed(id, "observer.add", func() error { return acc.Add(f.Sample, f.Index, f.Pos) })
		if err != nil {
			return err
		}
		st.frames++
		st.addNs = append(st.addNs, float64(d))
		// The iteration count of the same alignment, outside the timed
		// call: the Accumulator does not expose it.
		p0 := now()
		r, err := al.ICP(f.Pos, refs[f.Index], types, p.Observer.Align.ICP)
		tr.add(id, "probe.icp", run, p0, now())
		st.icpIters += int64(r.Iterations)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	st.simSteps += int64(ec.M) * int64(ec.Steps)
	st.particleSteps += int64(ec.M) * int64(ec.Steps) * int64(len(types))

	eng := infotheory.NewEngine(0)
	ksg := func(parent int, d *infotheory.Dataset) float64 {
		t0 := now()
		v := eng.MultiInfoKSGVariant(d, k, variant)
		t1 := now()
		tr.add(parent, "infotheory.ksg", run, t0, t1)
		st.estimates++
		return v
	}
	res := &experiment.Result{Name: p.Name, Times: times, MI: make([]float64, len(times)), Labels: acc.Labels()}
	groups := infotheory.GroupsByLabel(acc.Labels())
	if p.Decompose {
		res.Decomp = make([]infotheory.Decomposition, len(times))
	}
	for t, d := range acc.Datasets() {
		t0 := now()
		res.MI[t] = ksg(parent, d)
		t1 := now()
		st.ksgNs += t1 - t0
		estNs += t1 - t0
		if p.Decompose {
			id, end := tr.begin(parent, "infotheory.decompose", run)
			res.Decomp[t] = infotheory.Decompose(d, groups, func(sub *infotheory.Dataset) float64 { return ksg(id, sub) })
			end()
			t2 := now()
			st.decomposeNs += t2 - t1
			estNs += t2 - t1
		}
	}
	st.simNs += simNs
	total := float64(simNs + alignNs + estNs)
	fractions := map[string]float64{
		"sim":      float64(simNs) / total,
		"align":    float64(alignNs) / total,
		"estimate": float64(estNs) / total,
	}
	return res, fractions, nil
}

// replaySweeper executes a sweep's runs through replay, one after
// another, so a scenario's own reduction turns the replayed results into
// its figure.
type replaySweeper struct {
	tr    *tracer
	root  int
	st    *layerStats
	split map[string]map[string]float64
}

func (r *replaySweeper) Sweep(_ context.Context, specs []experiment.SweepSpec) ([]*experiment.Result, error) {
	out := make([]*experiment.Result, len(specs))
	for i, s := range specs {
		id, end := r.tr.begin(r.root, "replay.run", s.ID)
		res, fr, err := replay(s.Pipeline, r.tr, id, s.ID, r.st)
		end()
		if err != nil {
			return nil, err
		}
		out[i] = res
		r.split[s.ID] = fr
	}
	return out, nil
}

func (r *replaySweeper) Do(context.Context, int, func(worker, i int) error) error {
	return errors.New("replay: sweep jobs are not replayed")
}
