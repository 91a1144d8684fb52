package infodynamics

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/infotheory"
)

// gaussianTriplet draws m (x, y, z) scalar samples where z drives both x
// and y, so I(X;Y|Z) is small but the joint dependence is strong — the
// mediated-dependence shape the exact-tier tests use.
func gaussianTriplet(m int, seed uint64) (xs, ys, zs [][]float64) {
	r := rand.New(rand.NewPCG(seed, seed^31))
	for i := 0; i < m; i++ {
		z := r.NormFloat64()
		xs = append(xs, []float64{z + 0.5*r.NormFloat64()})
		ys = append(ys, []float64{z + 0.5*r.NormFloat64()})
		zs = append(zs, []float64{z})
	}
	return xs, ys, zs
}

// TestCMIApproxFullSubsampleMatchesExact: at r = m the subsampled
// estimator evaluates every sample, so it must agree with the exact path
// up to summation-grouping rounding, with a collapsed interval.
func TestCMIApproxFullSubsampleMatchesExact(t *testing.T) {
	const m, k = 400, 4
	xs, ys, zs := gaussianTriplet(m, 1)
	exact, err := ConditionalMutualInfo(xs, ys, zs, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ConditionalMutualInfoApprox(xs, ys, zs, k, infotheory.ApproxOptions{Subsample: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.MI-exact) > 1e-9 {
		t.Errorf("r=m approx %v vs exact %v", got.MI, exact)
	}
	if got.StdErr != 0 || got.CILow != got.MI || got.CIHigh != got.MI {
		t.Errorf("r=m interval did not collapse: %+v", got)
	}
	if got.Evals != m {
		t.Errorf("Evals = %d, want %d", got.Evals, m)
	}
}

// TestCMIApproxCICoversExact: the subsampled estimate's own 95% interval
// must cover the exact-tier estimate at fixed seeds.
func TestCMIApproxCICoversExact(t *testing.T) {
	const m, k, r = 1500, 4, 200
	for seed := uint64(1); seed <= 3; seed++ {
		xs, ys, zs := gaussianTriplet(m, seed)
		exact, err := ConditionalMutualInfo(xs, ys, zs, k)
		if err != nil {
			t.Fatal(err)
		}
		est, err := ConditionalMutualInfoApprox(xs, ys, zs, k, infotheory.ApproxOptions{Subsample: r, Seed: seed, Sequence: 4})
		if err != nil {
			t.Fatal(err)
		}
		if est.StdErr <= 0 {
			t.Fatalf("seed %d: no error bar: %+v", seed, est)
		}
		if exact < est.CILow || exact > est.CIHigh {
			t.Errorf("seed %d: exact %v outside approx CI [%v, %v]", seed, exact, est.CILow, est.CIHigh)
		}
	}
}

// TestCMIApproxDeterministicDraw: identical options repeat exactly;
// changing Seed or Sequence changes the evaluation subset.
func TestCMIApproxDeterministicDraw(t *testing.T) {
	xs, ys, zs := gaussianTriplet(300, 9)
	base := infotheory.ApproxOptions{Subsample: 40, Seed: 1, Sequence: 1}
	a, err := ConditionalMutualInfoApprox(xs, ys, zs, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ConditionalMutualInfoApprox(xs, ys, zs, 4, base)
	if a != b {
		t.Fatalf("repeat run differs: %+v vs %+v", a, b)
	}
	seed2, seq2 := base, base
	seed2.Seed = 2
	seq2.Sequence = 2
	if c, _ := ConditionalMutualInfoApprox(xs, ys, zs, 4, seed2); c.MI == a.MI {
		t.Error("changing Seed did not change the draw")
	}
	if c, _ := ConditionalMutualInfoApprox(xs, ys, zs, 4, seq2); c.MI == a.MI {
		t.Error("changing Sequence did not change the draw")
	}
}

// TestCMIApproxValidation: invalid subsample sizes and invalid pooled
// samples error out, never panic.
func TestCMIApproxValidation(t *testing.T) {
	xs, ys, zs := gaussianTriplet(50, 2)
	for _, r := range []int{0, -1, 51} {
		if _, err := ConditionalMutualInfoApprox(xs, ys, zs, 4, infotheory.ApproxOptions{Subsample: r}); err == nil {
			t.Errorf("Subsample=%d did not error", r)
		}
	}
	if _, err := ConditionalMutualInfoApprox(xs[:10], ys, zs, 4, infotheory.ApproxOptions{Subsample: 5}); err == nil {
		t.Error("mismatched sample counts did not error")
	}
}

// TestCMIApproxGoldenBits pins the approximate CMI's output across
// versions: the MI and StdErr bit patterns of one subsampled estimate.
func TestCMIApproxGoldenBits(t *testing.T) {
	const wantMI, wantSE = 0xbfbe75a7ee67364b, 0x3fb25a222cf55872
	xs, ys, zs := gaussianTriplet(300, 40)
	est, err := ConditionalMutualInfoApprox(xs, ys, zs, 4, infotheory.ApproxOptions{Subsample: 37, Seed: 40, Sequence: 7})
	if err != nil {
		t.Fatal(err)
	}
	if mi, se := math.Float64bits(est.MI), math.Float64bits(est.StdErr); mi != wantMI || se != wantSE {
		t.Errorf("MI, StdErr bits = %#016x, %#016x; want %#016x, %#016x", mi, se, uint64(wantMI), uint64(wantSE))
	}
}
