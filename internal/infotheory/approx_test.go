package infotheory

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rngx"
)

// equicorrelatedDataset draws m samples of n 1-D jointly Gaussian
// variables with pairwise correlation rho: X_v = √ρ·Z₀ + √(1−ρ)·Z_v.
// The multi-information is analytic — see equicorrelatedMI.
func equicorrelatedDataset(m, n int, rho float64, seed uint64) *Dataset {
	r := rngx.New(seed)
	dims := make([]int, n)
	for v := range dims {
		dims[v] = 1
	}
	d := NewDataset(m, dims)
	a, b := math.Sqrt(rho), math.Sqrt(1-rho)
	for s := 0; s < m; s++ {
		z0 := r.NormFloat64()
		for v := 0; v < n; v++ {
			d.Var(s, v)[0] = a*z0 + b*r.NormFloat64()
		}
	}
	return d
}

// equicorrelatedMI returns the analytic multi-information in bits of n
// equicorrelated standard Gaussians: −½ log₂ det Σ with
// det Σ = (1−ρ)^{n−1} (1 + (n−1)ρ).
func equicorrelatedMI(n int, rho float64) float64 {
	det := math.Pow(1-rho, float64(n-1)) * (1 + float64(n-1)*rho)
	return -0.5 * mathx.Log2(math.Log(det))
}

// TestApproxFullSubsampleMatchesExact: at r = m every evaluation point
// is used, so the estimate must agree with the exact tier up to
// summation-grouping rounding (the approximate tier groups ψ terms per
// sample) and the interval must collapse to the point.
func TestApproxFullSubsampleMatchesExact(t *testing.T) {
	d := scalingDataset(300, 4, 20)
	for _, variant := range []KSGVariant{KSGPaper, KSG1, KSG2} {
		exact := NewEngine(0).MultiInfoKSGVariant(d, DefaultBenchK, variant)
		got := NewEngine(0).MultiInfoKSGApprox(d, DefaultBenchK, variant, ApproxOptions{Subsample: 300, Seed: 1})
		if math.Abs(got.MI-exact) > 1e-9 {
			t.Errorf("%v: r=m approx %v vs exact %v", variant, got.MI, exact)
		}
		if got.StdErr != 0 || got.CILow != got.MI || got.CIHigh != got.MI {
			t.Errorf("%v: r=m interval did not collapse: %+v", variant, got)
		}
		if got.Evals != 300 {
			t.Errorf("%v: Evals = %d, want 300", variant, got.Evals)
		}
	}
}

// TestApproxWithinOwnCI pins the accuracy contract on equicorrelated
// Gaussians with analytic MI, using the pipeline's default KSG-2
// formulation (the paper's strict-count formulation carries a large
// known bias on 1-D marginals, which would test the estimator's bias,
// not the subsampling): at a fixed seed set, the subsampled estimate's
// own 95% interval must cover the exact-tier estimate (the quantity the
// interval is an interval for), and — since the exact KSG-2 estimate
// itself sits close to the analytic value at this m — the analytic MI
// must lie within the interval widened by the exact tier's own bias
// allowance.
func TestApproxWithinOwnCI(t *testing.T) {
	const m, n, rho, k, r = 3000, 3, 0.5, 4, 300
	analytic := equicorrelatedMI(n, rho)
	for seed := uint64(1); seed <= 5; seed++ {
		d := equicorrelatedDataset(m, n, rho, seed)
		exact := NewEngine(0).MultiInfoKSGVariant(d, k, KSG2)
		if math.Abs(exact-analytic) > 0.15 {
			t.Fatalf("seed %d: exact estimate %v too far from analytic %v", seed, exact, analytic)
		}
		est := NewEngine(0).MultiInfoKSGApprox(d, k, KSG2, ApproxOptions{Subsample: r, Seed: seed, Sequence: 9})
		if est.StdErr <= 0 {
			t.Fatalf("seed %d: no error bar: %+v", seed, est)
		}
		if exact < est.CILow || exact > est.CIHigh {
			t.Errorf("seed %d: exact %v outside approx CI [%v, %v]", seed, exact, est.CILow, est.CIHigh)
		}
		if analytic < est.CILow-0.15 || analytic > est.CIHigh+0.15 {
			t.Errorf("seed %d: analytic %v outside widened CI [%v, %v]", seed, analytic, est.CILow-0.15, est.CIHigh+0.15)
		}
	}
}

// TestApproxBitIdenticalAcrossWorkers is the scheduling-invariance
// contract: the full ApproxEstimate must be byte-equal for every
// Workers setting.
func TestApproxBitIdenticalAcrossWorkers(t *testing.T) {
	d := scalingDataset(500, 6, 21)
	opts := ApproxOptions{Subsample: 120, Seed: 3, Sequence: 17}
	want := NewEngine(1).MultiInfoKSGApprox(d, DefaultBenchK, KSG2, opts)
	for _, workers := range []int{2, 8} {
		got := NewEngine(workers).MultiInfoKSGApprox(d, DefaultBenchK, KSG2, opts)
		if got != want {
			t.Errorf("Workers=%d: %+v differs from serial %+v", workers, got, want)
		}
	}
}

// TestApproxIndependentOfEngineHistory: an engine that previously
// estimated other datasets — same shape, another shape, or the exact
// tier, all of which leave trees and scratch behind — must produce
// byte-equal results to a fresh engine. Results depend only on
// (d, k, variant, opts), never on what the engine served before.
func TestApproxIndependentOfEngineHistory(t *testing.T) {
	target := scalingDataset(400, 4, 22)
	opts := ApproxOptions{Subsample: 80, Seed: 5, Sequence: 2}
	want := NewEngine(0).MultiInfoKSGApprox(target, DefaultBenchK, KSGPaper, opts)

	// Same shape, different coordinates first.
	otherSame := scalingDataset(400, 4, 23)
	e := NewEngine(0)
	_ = e.MultiInfoKSGApprox(otherSame, DefaultBenchK, KSGPaper, ApproxOptions{Subsample: 80, Seed: 1})
	if got := e.MultiInfoKSGApprox(target, DefaultBenchK, KSGPaper, opts); got != want {
		t.Errorf("after same-shape history: %+v, want %+v", got, want)
	}

	// Different shape in between, another history a fresh engine never
	// saw.
	otherShape := scalingDataset(150, 7, 24)
	_ = e.MultiInfoKSGApprox(otherShape, DefaultBenchK, KSGPaper, ApproxOptions{Subsample: 10, Seed: 1})
	if got := e.MultiInfoKSGApprox(target, DefaultBenchK, KSGPaper, opts); got != want {
		t.Errorf("after shape-change history: %+v, want %+v", got, want)
	}

	// Interleaved exact-tier calls must not perturb the approximate
	// tier either (both tiers rebuild the same trees per call).
	_ = e.MultiInfoKSGVariant(otherSame, DefaultBenchK, KSGPaper)
	if got := e.MultiInfoKSGApprox(target, DefaultBenchK, KSGPaper, opts); got != want {
		t.Errorf("after exact-tier interleaving: %+v, want %+v", got, want)
	}
}

// TestApproxDrawDependsOnSeedAndSequence: different seeds or sequence
// numbers must select different evaluation subsets (distinct estimates
// on continuous data), while identical options repeat exactly.
func TestApproxDrawDependsOnSeedAndSequence(t *testing.T) {
	d := scalingDataset(400, 4, 25)
	base := ApproxOptions{Subsample: 40, Seed: 1, Sequence: 1}
	a := NewEngine(0).MultiInfoKSGApprox(d, DefaultBenchK, KSGPaper, base)
	b := NewEngine(0).MultiInfoKSGApprox(d, DefaultBenchK, KSGPaper, base)
	if a != b {
		t.Fatalf("repeat run differs: %+v vs %+v", a, b)
	}
	seed2 := base
	seed2.Seed = 2
	seq2 := base
	seq2.Sequence = 2
	if c := NewEngine(0).MultiInfoKSGApprox(d, DefaultBenchK, KSGPaper, seed2); c.MI == a.MI {
		t.Error("changing Seed did not change the draw")
	}
	if c := NewEngine(0).MultiInfoKSGApprox(d, DefaultBenchK, KSGPaper, seq2); c.MI == a.MI {
		t.Error("changing Sequence did not change the draw")
	}
}

// TestApproxSteadyStateAllocationFree: across same-shaped datasets (the
// pipeline's consecutive steps) a warm serial engine must not allocate.
func TestApproxSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine(0)
	frames := []*Dataset{
		scalingDataset(256, 4, 30),
		scalingDataset(256, 4, 31),
		scalingDataset(256, 4, 32),
	}
	opts := ApproxOptions{Subsample: 64, Seed: 1}
	for _, d := range frames {
		_ = e.MultiInfoKSGApprox(d, DefaultBenchK, KSG2, opts)
	}
	step := 0
	allocs := testing.AllocsPerRun(12, func() {
		opts.Sequence = uint64(step % 3)
		_ = e.MultiInfoKSGApprox(frames[step%3], DefaultBenchK, KSG2, opts)
		step++
	})
	if allocs != 0 {
		t.Errorf("steady-state approximate estimate allocates %v allocs/op, want 0", allocs)
	}
}

// TestApproxEdgeCases: r = 1 yields a zero-width interval around a
// finite estimate; fewer than two variables is zero by definition;
// invalid subsample sizes panic.
func TestApproxEdgeCases(t *testing.T) {
	d := scalingDataset(50, 3, 33)
	one := NewEngine(0).MultiInfoKSGApprox(d, 2, KSGPaper, ApproxOptions{Subsample: 1, Seed: 1})
	if one.StdErr != 0 || math.IsNaN(one.MI) {
		t.Errorf("r=1: %+v", one)
	}
	single := scalingDataset(50, 1, 34)
	if z := NewEngine(0).MultiInfoKSGApprox(single, 2, KSGPaper, ApproxOptions{Subsample: 10, Seed: 1}); z != (ApproxEstimate{}) {
		t.Errorf("single variable: %+v, want zero", z)
	}
	for _, r := range []int{0, 51} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Subsample=%d did not panic", r)
				}
			}()
			NewEngine(0).MultiInfoKSGApprox(d, 2, KSGPaper, ApproxOptions{Subsample: r, Seed: 1})
		}()
	}
}

// TestApproxGoldenBits pins the approximate tier's output across
// versions: the MI and StdErr bit patterns of all three variants at
// r ∈ {1, 37, m}, on a pipeline-shaped dataset and on a copy rounded to
// a 0.5 lattice (distance ties and zero counts), all through one reused
// engine. Every other approximate-tier test compares the tier with
// itself; this one compares it with fixed values, so a refactor of the
// tree or term machinery under the tier cannot shift a bit unnoticed.
func TestApproxGoldenBits(t *testing.T) {
	raw := scalingDataset(300, 4, 40)
	lattice := scalingDataset(300, 4, 40)
	for i := range lattice.data {
		lattice.data[i] = math.Round(2*lattice.data[i]) / 2
	}
	cases := []struct {
		d       *Dataset
		variant KSGVariant
		r       int
		mi, se  uint64
	}{
		{raw, KSGPaper, 1, 0x401b2a4cbb6d0da6, 0x0000000000000000},
		{raw, KSGPaper, 37, 0x401d23077ecd9171, 0x3fe0f3d0aaa6f791},
		{raw, KSGPaper, 300, 0x401f85ab87fba244, 0x0000000000000000},
		{raw, KSG1, 1, 0x4000d808cc6ed849, 0x0000000000000000},
		{raw, KSG1, 37, 0x4002e506cd0565cd, 0x3fd3b0b4167b2b0f},
		{raw, KSG1, 300, 0x4004ba55d6d77a64, 0x0000000000000000},
		{raw, KSG2, 1, 0x4001cb81386f6c20, 0x0000000000000000},
		{raw, KSG2, 37, 0x4003b669d7996c7c, 0x3fd613d6c1135fe4},
		{raw, KSG2, 300, 0x4006482e4c9ca98c, 0x0000000000000000},
		{lattice, KSGPaper, 1, 0x4022c925ca298474, 0x0000000000000000},
		{lattice, KSGPaper, 37, 0x4020c21ad28a02b7, 0x3fe114e29aad64dc},
		{lattice, KSGPaper, 300, 0x40239947733decf0, 0x0000000000000000},
		{lattice, KSG1, 1, 0xbfcca8503c7320e7, 0x0000000000000000},
		{lattice, KSG1, 37, 0x3ffec33ed741bad5, 0x3fd4c72ab0d16d80},
		{lattice, KSG1, 300, 0x4000eb8642d368d2, 0x0000000000000000},
		{lattice, KSG2, 1, 0x3fe66b135a9994ea, 0x0000000000000000},
		{lattice, KSG2, 37, 0x3ff42081f7c9e31b, 0x3fd2d57cdd5f900a},
		{lattice, KSG2, 300, 0x3ffc57843e7340e4, 0x0000000000000000},
	}
	e := NewEngine(0)
	for i, c := range cases {
		est := e.MultiInfoKSGApprox(c.d, DefaultBenchK, c.variant, ApproxOptions{Subsample: c.r, Seed: 40, Sequence: 7})
		if mi, se := math.Float64bits(est.MI), math.Float64bits(est.StdErr); mi != c.mi || se != c.se {
			t.Errorf("case %d (%v, r=%d): MI, StdErr bits = %#016x, %#016x; want %#016x, %#016x",
				i, c.variant, c.r, mi, se, c.mi, c.se)
		}
	}
}
