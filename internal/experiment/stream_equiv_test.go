package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/forces"
	"repro/internal/observer"
	"repro/internal/sim"
)

func forcesEquiv() forces.Scaling {
	return forces.MustF1(forces.ConstantMatrix(3, 1),
		forces.MustMatrix([][]float64{{1.5, 3.5, 2.5}, {3.5, 2.0, 3.0}, {2.5, 3.0, 1.8}}))
}

// resultsIdentical asserts bit-identical pipeline outputs (the acceptance
// bar of the streaming refactor: not approximately equal — identical).
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Times, b.Times) {
		t.Fatalf("%s: Times %v vs %v", label, a.Times, b.Times)
	}
	for i := range a.MI {
		if a.MI[i] != b.MI[i] {
			t.Fatalf("%s: MI[%d] = %x vs %x", label, i, a.MI[i], b.MI[i])
		}
	}
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatalf("%s: labels differ", label)
	}
	if a.EquilibratedFraction != b.EquilibratedFraction {
		t.Fatalf("%s: equilibrated fraction %v vs %v", label, a.EquilibratedFraction, b.EquilibratedFraction)
	}
	if !reflect.DeepEqual(a.Decomp, b.Decomp) {
		t.Fatalf("%s: decompositions differ", label)
	}
	if !reflect.DeepEqual(a.Entropies, b.Entropies) {
		t.Fatalf("%s: entropy profiles differ", label)
	}
}

func equivPipeline() Pipeline {
	return Pipeline{
		Name: "equiv",
		Ensemble: sim.EnsembleConfig{
			Sim: sim.Config{
				N:     12,
				Types: sim.TypesRoundRobin(12, 3),
				Force: forcesEquiv(),
			},
			M:           24,
			Steps:       30,
			RecordEvery: 10,
			Seed:        42,
		},
	}
}

// TestStreamedPipelineMatchesBatchEverywhere runs the streamed Run against
// the materialised batch path for every estimator-relevant configuration
// and a spread of worker counts on both stages; all outputs must be
// bit-identical.
func TestStreamedPipelineMatchesBatchEverywhere(t *testing.T) {
	variants := map[string]func(p Pipeline) Pipeline{
		"plain":     func(p Pipeline) Pipeline { return p },
		"kmeans":    func(p Pipeline) Pipeline { p.Observer = observer.Config{KMeansK: 2, Seed: 9}; return p },
		"skipalign": func(p Pipeline) Pipeline { p.Observer = observer.Config{SkipAlign: true}; return p },
		"decomp-entropies": func(p Pipeline) Pipeline {
			p.Decompose = true
			p.TrackEntropies = true
			return p
		},
	}
	for name, mut := range variants {
		t.Run(name, func(t *testing.T) {
			p := mut(equivPipeline())
			effK, _ := p.effectiveK()
			batch, err := p.runBatch(context.Background(), effK)
			if err != nil {
				t.Fatal(err)
			}
			// The third knob is SampleWorkers: within-step sample
			// parallelism of the estimator engine must leave every
			// output bit-identical too.
			for _, w := range [][3]int{{1, 1, 0}, {2, 3, 1}, {5, 2, 3}, {16, 16, 4}} {
				pw := p
				pw.Ensemble.Workers = w[0]
				pw.Workers = w[1]
				pw.SampleWorkers = w[2]
				streamed, err := pw.Run()
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, name, streamed, batch)
			}
		})
	}
}

// TestStreamedPipelineQuickScaleFig4 is the QuickScale acceptance check:
// the flagship Fig. 4 experiment at CLI scale, streamed vs batch,
// bit-identical. ~5 s, skipped under -short (the race CI job).
func TestStreamedPipelineQuickScaleFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale equivalence is not a -short test")
	}
	sc := QuickScale()
	p := Pipeline{
		Name:     "fig4-quick",
		Ensemble: sim.EnsembleConfig{Sim: Fig4Params(), M: sc.M, Steps: sc.Steps, RecordEvery: sc.RecordEvery, Seed: 2012},
	}
	effK, _ := p.effectiveK()
	batch, err := p.runBatch(context.Background(), effK)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "fig4-quick", streamed, batch)
}

// TestStreamedRetainedEnsembleMatchesRunEnsemble asserts the retention
// knob reproduces exactly what sim.RunEnsemble returns.
func TestStreamedRetainedEnsembleMatchesRunEnsemble(t *testing.T) {
	p := equivPipeline()
	p.RetainEnsemble = true
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	ens, err := sim.RunEnsembleCtx(context.Background(), p.Ensemble)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Ensemble.Types, ens.Types) ||
		!reflect.DeepEqual(res.Ensemble.Equilibrated, ens.Equilibrated) {
		t.Fatal("retained ensemble metadata differs from RunEnsemble")
	}
	for s := range ens.Trajs {
		if !reflect.DeepEqual(res.Ensemble.Trajs[s].Frames, ens.Trajs[s].Frames) {
			t.Fatalf("retained trajectory %d differs from RunEnsemble", s)
		}
	}
}

// TestMedoidReferenceFallsBackToBatch: the medoid reference cannot stream;
// the pipeline must still run it (through the batch path) and honour the
// retention knob.
func TestMedoidReferenceFallsBackToBatch(t *testing.T) {
	p := equivPipeline()
	p.Observer.Align.Reference = align.RefMedoid
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ensemble != nil {
		t.Fatal("medoid fallback retained the ensemble without RetainEnsemble")
	}
	if len(res.MI) != len(res.Times) || len(res.Times) == 0 {
		t.Fatal("medoid fallback produced no MI curve")
	}
}

// TestPipelineRejectsDefaultedKTooLargeForM is the regression test for the
// validation gap: K=0 defaults to 4, which is just as invalid for M ≤ 4 as
// an explicit K=4 — the old guard only caught the explicit form.
func TestPipelineRejectsDefaultedKTooLargeForM(t *testing.T) {
	p := tinyPipeline("defaultk", "")
	p.K = 0
	p.Ensemble.M = DefaultKSGK // 4 samples, defaulted k = 4: invalid
	if _, err := p.Run(); err == nil {
		t.Fatal("defaulted K >= M accepted")
	} else if !strings.Contains(err.Error(), "KSG k") {
		t.Fatalf("unexpected error: %v", err)
	}
	p.Ensemble.M = DefaultKSGK + 1 // 5 samples: minimal valid ensemble
	if _, err := p.Run(); err != nil {
		t.Fatalf("M = k+1 rejected: %v", err)
	}
	// Estimators that never evaluate a k-NN query keep the old, laxer
	// behaviour for the defaulted K.
	p = tinyPipeline("kernel-smallM", EstKernel)
	p.Ensemble.M = 3
	if _, err := p.Run(); err != nil {
		t.Fatalf("kernel estimator with tiny M rejected: %v", err)
	}
	// ... but an explicit oversized K stays rejected everywhere.
	p.K = 3
	if _, err := p.Run(); err == nil {
		t.Fatal("explicit K >= M accepted for the kernel estimator")
	}
	// And TrackEntropies forces the k-NN guard even for kernel.
	p = tinyPipeline("kernel-entropies", EstKernel)
	p.Ensemble.M = 3
	p.TrackEntropies = true
	if _, err := p.Run(); err == nil {
		t.Fatal("TrackEntropies with M <= default k accepted")
	}
}
