package sops_test

import (
	"context"
	"testing"

	"repro/internal/align"
	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/infodynamics"
	"repro/internal/infotheory"
	"repro/internal/kmeans"
	"repro/internal/observer"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/statcomplex"
	"repro/internal/vec"
)

// Benchmarks for the extension subsystems (Secs. 3, 6, 7.1, 7.3 tooling)
// and the remaining infrastructure paths.

func benchEnsemble(b *testing.B, n, m, steps, every int) *sim.Ensemble {
	b.Helper()
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:      n,
			Types:  sim.TypesRoundRobin(n, 2),
			Force:  forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 2)),
			Cutoff: 6,
		},
		M:           m,
		Steps:       steps,
		RecordEvery: every,
		Seed:        benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ens
}

func BenchmarkTransferEntropy(b *testing.B) {
	ens := benchEnsemble(b, 6, 16, 60, 2)
	ta := infodynamics.ParticleTrajectories(ens, 0, true)
	tb := infodynamics.ParticleTrajectories(ens, 1, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infodynamics.TransferEntropy(ta, tb, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkActiveStorage(b *testing.B) {
	ens := benchEnsemble(b, 6, 16, 60, 2)
	ta := infodynamics.ParticleTrajectories(ens, 0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infodynamics.ActiveStorage(ta, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKLEntropy(b *testing.B) {
	ds := experiment.SampleEquicorrelatedGaussians(400, 6, 0.5, rngx.New(3))
	all := []int{0, 1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infotheory.NewEngine(0).DifferentialEntropyKL(ds, all, 4)
	}
}

func BenchmarkEntropyProfile(b *testing.B) {
	ds := experiment.SampleEquicorrelatedGaussians(300, 6, 0.5, rngx.New(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infotheory.NewEngine(0).Entropies(ds, 4)
	}
}

func BenchmarkEpsilonMachineReconstruction(b *testing.B) {
	rng := rngx.New(7)
	seqs := make([][]int, 16)
	for s := range seqs {
		seq := make([]int, 2000)
		prev := 0
		for i := range seq {
			if prev == 1 {
				seq[i] = 0
			} else if rng.Float64() < 0.5 {
				seq[i] = 1
			}
			prev = seq[i]
		}
		seqs[s] = seq
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := statcomplex.Reconstruct(seqs, statcomplex.Options{Alphabet: 2, MaxHistory: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymbolicComplexityProfile(b *testing.B) {
	ens := benchEnsemble(b, 10, 16, 60, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SymbolicComplexityProfile(ens, 10, 4, 0.05,
			statcomplex.Options{MaxHistory: 1, MinCount: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsembleSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchEnsemble(b, 20, 32, 100, 25)
	}
}

func BenchmarkAlignFrame(b *testing.B) {
	ens := benchEnsemble(b, 30, 48, 40, 40)
	frames := ens.FramesAt(len(ens.Times()) - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.AlignFrame(frames, ens.Types, align.FrameOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserverReduction(b *testing.B) {
	ens := benchEnsemble(b, 40, 32, 40, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := observer.FromEnsembleCtx(context.Background(), ens, observer.Config{KMeansK: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansCluster(b *testing.B) {
	rng := rngx.New(11)
	pts := make([]vec.Vec2, 300)
	for i := range pts {
		x, y := rng.UniformDisc(10)
		pts[i] = vec.Vec2{X: x, Y: y}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Cluster(pts, 6, rngx.New(uint64(i)), kmeans.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
