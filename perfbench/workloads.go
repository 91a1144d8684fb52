package main

import (
	"encoding/json"
	"fmt"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/sweep"
)

// refSeeds is the number of input seeds with a committed reference
// digest: --seed n selects input seed n mod refSeeds, so every input the
// benchmark can generate has its expected output in refs.json.
const refSeeds = 16

// workload is one benchmark input family. The program under test only
// ever sees the spec JSON that input generates from a seed.
type workload struct {
	name string
	// ref names the reference-digest table the outputs are checked
	// against; workloads that run the same specs share one.
	ref string
	// sweep workloads run Session.Figure over a scenario spec and are
	// checked on their figure CSV; the others run Session.Run over a
	// single-run spec and are checked on their MI curve bits.
	sweep bool
	// procs > 1 shards the sweep over that many worker processes.
	procs int
	// spec builds the workload's spec for one input seed.
	spec func(seed uint64) (sops.Spec, error)
}

// fig8Spec is the CI smoke grid with half its ensemble: the fig8 scenario
// at test scale with M = 64, 250 steps and 4 repeats, 40 runs of N = 20
// with 2 frames each. At the CI grid's M = 128 an op took 5-7 s, so a
// 30 s run fit one cycle of the window, and the median of its three ops
// spread past the time bound.
func fig8Spec(seed uint64) (sops.Spec, error) {
	s, ok := sweep.LookupScenario("fig8")
	if !ok {
		return sops.Spec{}, fmt.Errorf("fig8 scenario missing from the registry")
	}
	sp := s.Spec("test", seed)
	sp.MergeCLIOverrides("test", seed, 64, 250, 4)
	return sp, nil
}

var workloads = []workload{
	// Align leads (ICP is about half of a serial replay); the only N >= 32
	// input, so sim runs its dense-grid path.
	{
		name: "fig4-pipeline",
		ref:  "fig4-pipeline",
		spec: func(seed uint64) (sops.Spec, error) {
			// Quick scale: M = 128, 250 steps, a frame every 25 steps.
			return sops.SpecFromPipeline(experiment.Fig4PipelineOf(experiment.QuickScale(), seed))
		},
	},
	// Infotheory on knn leads (Decompose and KSG are about half of a
	// replay at M = 600); runs both knn paths, flat scans and k-d trees.
	{
		name: "fig11-decomp",
		ref:  "fig11-decomp",
		spec: func(seed uint64) (sops.Spec, error) {
			sc := experiment.Scale{M: 600, Steps: 250, RecordEvery: 50}
			return sops.SpecFromPipeline(experiment.Fig11PipelineOf(sc, seed))
		},
	},
	// Many small runs with sim leading; pays per-run set-up and a store
	// load and save per run.
	{
		name:  "fig8-sweep",
		ref:   "fig8-sweep",
		sweep: true,
		spec:  fig8Spec,
	},
	// The fig8-sweep specs over 2 worker processes, so spawn, the wire
	// protocol and progress forwarding are measured.
	{
		name:  "fig8-sweep-procs2",
		ref:   "fig8-sweep",
		sweep: true,
		procs: 2,
		spec:  fig8Spec,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputSeed maps the benchmark's --seed onto the index of the input seed
// the spec is generated from.
func inputSeed(seed uint64) uint64 { return seed % refSeeds }

// input generates the spec JSON the program under test receives; its
// master seed is inputSeed(seed)+1.
func (w workload) input(seed uint64) ([]byte, error) {
	sp, err := w.spec(inputSeed(seed) + 1)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sp.Normalized())
}
