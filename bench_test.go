// Benchmark harness: one benchmark per figure of the paper (Figs. 1–12)
// plus the Sec. 5.3 estimator comparison and the design-choice ablations
// called out in DESIGN.md. Figure benchmarks run the same drivers as
// cmd/sopfigures at the reduced TestScale, so `go test -bench=.` both
// exercises every experiment end to end and measures its cost; the shape
// results at full scale are recorded in EXPERIMENTS.md.
package sops_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/infotheory"
	"repro/internal/mathx"
	"repro/internal/observer"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/vec"
)

const benchSeed = 2012

func benchScale() experiment.Scale { return experiment.TestScale() }

// --- one benchmark per paper figure ----------------------------------------

func BenchmarkFig01ExampleConfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1Example(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02ForceCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fd := experiment.Fig2ForceCurves()
		if len(fd.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFig03Equilibria(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig3Equilibria(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04MultiInformationTimeSeries(b *testing.B) {
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig4Pipeline(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.DeltaI(), "ΔI-bits")
}

func BenchmarkFig05SingleTypeRings(b *testing.B) {
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig5SingleTypeRings(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.DeltaI(), "ΔI-bits")
}

func BenchmarkFig06SampleSnapshots(b *testing.B) {
	res, err := experiment.Fig6Pipeline(benchScale(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps := experiment.Fig6Snapshots(res, []int{0, res.Times[len(res.Times)-1]}, 4)
		if len(snaps) == 0 {
			b.Fatal("no snapshots")
		}
	}
}

func BenchmarkFig07AlignedOverlay(b *testing.B) {
	res, err := experiment.Fig5SingleTypeRings(benchScale(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := experiment.Fig7AlignedOverlay(res)
		if len(ov.Pos) == 0 {
			b.Fatal("empty overlay")
		}
	}
}

func BenchmarkFig08TypeCountSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig8TypeCountSweep(context.Background(), nil, benchScale(), 4, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09CutoffSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9CutoffSweep(context.Background(), nil, benchScale(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10TypesVsCutoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig10TypesVsCutoff(context.Background(), nil, benchScale(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Decomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig11Decomposition(benchScale(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12EmergentStructures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig12EmergentStructures(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiment.EstimatorComparison(context.Background(), nil, 4, 100, 2, 0.6, 4, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- pipeline memory model ---------------------------------------------------

// legacyBatchPipeline reproduces the seed's fully-materialised measurement
// data flow through the public API: run and retain the whole ensemble, then
// build a complete aligned copy (serial per-step loop), then package every
// step into datasets, then estimate — three M×T×N transcripts live at peak.
// It is the baseline the streamed pipeline is benchmarked against.
func legacyBatchPipeline(ec sim.EnsembleConfig) ([]float64, error) {
	ens, err := sim.RunEnsemble(ec)
	if err != nil {
		return nil, err
	}
	times := ens.Times()
	aligned := make([][][]vec.Vec2, len(times))
	for t := range times {
		af, err := align.AlignFrame(ens.FramesAt(t), ens.Types, align.FrameOptions{})
		if err != nil {
			return nil, err
		}
		aligned[t] = af
	}
	datasets := make([]*infotheory.Dataset, len(times))
	for t := range times {
		datasets[t] = infotheory.FromFrames(aligned[t])
	}
	mi := make([]float64, len(times))
	for t := range times {
		mi[t] = infotheory.MultiInfoKSGVariant(datasets[t], experiment.DefaultKSGK, infotheory.KSG2)
	}
	return mi, nil
}

// BenchmarkPipelineMemory contrasts the streamed measurement pipeline with
// the retained variants on the Fig. 4 system. Run with -benchmem: the
// acceptance bar of the streaming refactor is streamed B/op at least 2×
// below the batch baseline (in practice the gap is far larger, since the
// batch path also re-allocates all ICP scratch per frame). CI emits this
// benchmark's output as a build artifact (BENCH trajectory).
func BenchmarkPipelineMemory(b *testing.B) {
	// TestScale's simulation budget, but a denser recording grid: the
	// transcripts whose retention the two modes disagree about scale with
	// the number of recorded frames, so a realistic MI-curve grid (11
	// frames, as QuickScale produces) is the representative workload.
	sc := benchScale()
	pipeline := func() experiment.Pipeline {
		return experiment.Pipeline{
			Name: "bench",
			Ensemble: sim.EnsembleConfig{
				Sim:         experiment.Fig4Params(),
				M:           sc.M,
				Steps:       sc.Steps,
				RecordEvery: sc.Steps / 10,
				Seed:        benchSeed,
			},
		}
	}
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		var last *experiment.Result
		for i := 0; i < b.N; i++ {
			res, err := pipeline().Run()
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.FinalMI(), "final-bits")
	})
	b.Run("streamed-retained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pipeline()
			p.RetainEnsemble = true
			if _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-legacy", func(b *testing.B) {
		b.ReportAllocs()
		var mi []float64
		for i := 0; i < b.N; i++ {
			var err error
			if mi, err = legacyBatchPipeline(pipeline().Ensemble); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mi[len(mi)-1], "final-bits")
	})
}

// --- ablations (design choices from DESIGN.md) ------------------------------

// BenchmarkAblationNeighbourStrategies compares the cell-list grid (rebuilt
// and queried, as each simulator step does) against the O(n²) sweep for a
// spread-out collective with a small cut-off — the regime where the
// simulator auto-selects the grid.
func BenchmarkAblationNeighbourStrategies(b *testing.B) {
	rng := rngx.New(1)
	n := 512
	pts := make([]vec.Vec2, n)
	for i := range pts {
		x, y := rng.UniformDisc(60)
		pts[i] = vec.Vec2{X: x, Y: y}
	}
	const radius = 3.0
	b.Run("grid", func(b *testing.B) {
		g := spatial.NewDenseGrid(radius)
		var buf []int32
		for i := 0; i < b.N; i++ {
			g.Rebuild(pts)
			for p := range pts {
				buf = g.AppendNeighbors(buf[:0], p, radius)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			for p := range pts {
				count += len(spatial.BruteNeighbors(pts, p, radius))
			}
		}
	})
}

// BenchmarkAblationKSGVariants times the three KSG formulations on the same
// dataset and reports each one's deviation from the analytic Gaussian truth
// — quantifying why the bias-corrected KSG-2 is the default rather than the
// formula exactly as printed in the paper.
func BenchmarkAblationKSGVariants(b *testing.B) {
	nVars, m, rho := 6, 300, 0.6
	truth := experiment.GaussianTrueMI(nVars, rho)
	ds := experiment.SampleEquicorrelatedGaussians(m, nVars, rho, rngx.New(3))
	for _, variant := range []infotheory.KSGVariant{infotheory.KSGPaper, infotheory.KSG1, infotheory.KSG2} {
		b.Run(variant.String(), func(b *testing.B) {
			var est float64
			for i := 0; i < b.N; i++ {
				est = infotheory.MultiInfoKSGVariant(ds, 4, variant)
			}
			b.ReportMetric(est-truth, "bias-bits")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationKMeansReduction measures the cost and the estimate shift
// of the Sec. 5.3.1 cluster-mean reduction on the Fig. 4 system.
func BenchmarkAblationKMeansReduction(b *testing.B) {
	sc := benchScale()
	b.Run("full", func(b *testing.B) {
		var res *experiment.Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = experiment.Fig4Pipeline(sc, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.FinalMI(), "final-bits")
	})
	b.Run("kmeans-3", func(b *testing.B) {
		var res *experiment.Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = experiment.Fig4PipelineReduced(sc, benchSeed, 3)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.FinalMI(), "final-bits")
	})
}

// BenchmarkAblationAlignmentReference compares the cheap first-sample
// anchor against the medoid anchor.
func BenchmarkAblationAlignmentReference(b *testing.B) {
	ens, err := sim.RunEnsemble(sim.EnsembleConfig{
		Sim:         experiment.Fig5Params(),
		M:           32,
		Steps:       40,
		RecordEvery: 40,
		Seed:        benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ref := range []align.Reference{align.RefFirst, align.RefMedoid} {
		name := "first"
		if ref == align.RefMedoid {
			name = "medoid"
		}
		b.Run(name, func(b *testing.B) {
			var obs *observer.Observers
			for i := 0; i < b.N; i++ {
				obs, err = observer.FromEnsemble(ens, observer.Config{
					Align: align.FrameOptions{Reference: ref},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			last := obs.Datasets[len(obs.Datasets)-1]
			b.ReportMetric(infotheory.MultiInfoKSGVariant(last, 4, infotheory.KSG2), "final-bits")
		})
	}
}

// --- micro-benchmarks of the hot paths --------------------------------------

func BenchmarkForceEvalF1(b *testing.B) {
	f := forces.MustF1(forces.ConstantMatrix(3, 2), forces.ConstantMatrix(3, 2.5))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Eval(i%3, (i+1)%3, 1.5+float64(i%7))
	}
	_ = sink
}

func BenchmarkForceEvalF2(b *testing.B) {
	f := forces.MustF2(forces.ConstantMatrix(3, 2), forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 5))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Eval(i%3, (i+1)%3, 1.5+float64(i%7))
	}
	_ = sink
}

// spreadSystem builds a system whose spread keeps the dense-grid strategy
// selected (extent ≫ 3·rc), the simulator's neighbour-search hot path.
func spreadSystem(b *testing.B, n, workers int) *sim.System {
	b.Helper()
	cfg := sim.Config{
		N:       n,
		Force:   forces.MustF1(forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 2)),
		Cutoff:  3,
		Workers: workers,
	}
	rng := rngx.New(17)
	pos := make([]vec.Vec2, n)
	for i := range pos {
		x, y := rng.UniformDisc(math.Sqrt(float64(n)) * 2) // ~constant density
		pos[i] = vec.Vec2{X: x, Y: y}
	}
	sys, err := sim.NewFromPositions(cfg, pos, rngx.New(18))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkStep measures the steady-state integrator step on the dense-grid
// path. With ReportAllocs it also asserts the headline property of the
// persistent grid: after warm-up, a step allocates nothing (serial and
// Workers=1 modes; Workers>1 pays a small per-step goroutine fan-out).
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		for _, workers := range []int{0, 1, 4} {
			b.Run("n="+itoa(n)+"/workers="+itoa(workers), func(b *testing.B) {
				sys := spreadSystem(b, n, workers)
				sys.Run(2) // warm up grid and scratch buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Step()
				}
			})
		}
	}
}

// BenchmarkGridRebuild measures the persistent DenseGrid's recycled
// counting-sort Rebuild plus one query sweep, at the paper's collective
// sizes.
func BenchmarkGridRebuild(b *testing.B) {
	const radius = 3.0
	for _, n := range []int{100, 1000} {
		rng := rngx.New(19)
		pts := make([]vec.Vec2, n)
		for i := range pts {
			x, y := rng.UniformDisc(math.Sqrt(float64(n)) * 2)
			pts[i] = vec.Vec2{X: x, Y: y}
		}
		b.Run("dense/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			g := spatial.NewDenseGrid(radius)
			buf := make([]int32, 0, 64)
			b.ResetTimer()
			count := 0
			for i := 0; i < b.N; i++ {
				g.Rebuild(pts)
				for p := range pts {
					buf = g.AppendNeighbors(buf[:0], p, radius)
					count += len(buf)
				}
			}
		})
	}
}

func BenchmarkSimStep(b *testing.B) {
	for _, n := range []int{20, 50, 120} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			cfg := sim.Config{
				N:      n,
				Force:  forces.MustF1(forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 2)),
				Cutoff: 5,
			}
			sys, err := sim.New(cfg, rngx.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Step()
			}
		})
	}
}

func BenchmarkKSGEstimator(b *testing.B) {
	for _, m := range []int{100, 500} {
		ds := experiment.SampleEquicorrelatedGaussians(m, 10, 0.5, rngx.New(7))
		b.Run("m="+itoa(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				infotheory.MultiInfoKSGVariant(ds, 4, infotheory.KSG2)
			}
		})
	}
}

func BenchmarkKernelEstimator(b *testing.B) {
	ds := experiment.SampleEquicorrelatedGaussians(200, 10, 0.5, rngx.New(9))
	for i := 0; i < b.N; i++ {
		infotheory.MultiInfoKernel(ds)
	}
}

func BenchmarkBinnedEstimator(b *testing.B) {
	ds := experiment.SampleEquicorrelatedGaussians(200, 10, 0.5, rngx.New(11))
	for i := 0; i < b.N; i++ {
		infotheory.MultiInfoBinned(ds, infotheory.BinnedOptions{})
	}
}

func BenchmarkICPAlign(b *testing.B) {
	rng := rngx.New(13)
	n := 50
	types := sim.TypesRoundRobin(n, 3)
	ref := make([]vec.Vec2, n)
	for i := range ref {
		x, y := rng.UniformDisc(6)
		ref[i] = vec.Vec2{X: x, Y: y}
	}
	moving := align.Rigid{Theta: 2.2, T: vec.Vec2{X: 9, Y: 1}}.ApplyAll(ref)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.ICP(moving, ref, types, align.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigamma(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mathx.Digamma(float64(i%1000) + 0.5)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN")
	}
}
