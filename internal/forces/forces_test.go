package forces

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rngx"
)

func TestMatrixSymmetryByConstruction(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 3, 7.5)
	if m.At(3, 1) != 7.5 || m.At(1, 3) != 7.5 {
		t.Fatal("Set did not propagate to the mirrored entry")
	}
	m.Set(2, 2, -1)
	if m.At(2, 2) != -1 {
		t.Fatal("diagonal broken")
	}
}

func TestMatrixIndexing(t *testing.T) {
	l := 5
	m := NewMatrix(l)
	// Fill every upper-triangle slot with a distinct value; all must be
	// stored in distinct locations (no aliasing).
	val := 1.0
	for a := 0; a < l; a++ {
		for b := a; b < l; b++ {
			m.Set(a, b, val)
			val++
		}
	}
	val = 1.0
	for a := 0; a < l; a++ {
		for b := a; b < l; b++ {
			if m.At(a, b) != val {
				t.Fatalf("At(%d,%d) = %v, want %v", a, b, m.At(a, b), val)
			}
			val++
		}
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) should panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestMatrixFromRowsValidates(t *testing.T) {
	if _, err := MatrixFromRows(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {2}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	m, err := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if m.At(0, 1) != 2 || m.At(1, 1) != 4 {
		t.Fatal("values lost")
	}
}

func TestMatrixRowsRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {2, 5, 6}, {3, 6, 9}}
	m := MustMatrix(rows)
	got := m.Rows()
	for a := range rows {
		for b := range rows[a] {
			if got[a][b] != rows[a][b] {
				t.Fatalf("Rows()[%d][%d] = %v", a, b, got[a][b])
			}
		}
	}
}

func TestConstantMatrix(t *testing.T) {
	m := ConstantMatrix(3, 2.5)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if m.At(a, b) != 2.5 {
				t.Fatal("ConstantMatrix not constant")
			}
		}
	}
}

func TestRandomMatrixRangeAndSymmetry(t *testing.T) {
	m := RandomMatrix(6, 2, 8, rngx.New(1))
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			x := m.At(a, b)
			if x < 2 || x >= 8 {
				t.Fatalf("entry %v out of [2,8)", x)
			}
			if m.At(b, a) != x {
				t.Fatal("random matrix asymmetric")
			}
		}
	}
}

func TestF1ZeroAtPreferredDistance(t *testing.T) {
	f := MustF1(ConstantMatrix(2, 3), MustMatrix([][]float64{{1.5, 2.5}, {2.5, 4.0}}))
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			r := f.PreferredDistance(a, b)
			if got := f.Eval(a, b, r); math.Abs(got) > 1e-12 {
				t.Errorf("F1(%d,%d,%g) = %v, want 0", a, b, r, got)
			}
			// Repulsive below, attractive above.
			if f.Eval(a, b, r*0.5) >= 0 {
				t.Errorf("F1 below r should be negative (repulsion)")
			}
			if f.Eval(a, b, r*2) <= 0 {
				t.Errorf("F1 above r should be positive (attraction)")
			}
		}
	}
}

func TestF1SaturatesAtK(t *testing.T) {
	f := MustF1(ConstantMatrix(1, 5), ConstantMatrix(1, 2))
	if got := f.Eval(0, 0, 1e9); math.Abs(got-5) > 1e-6 {
		t.Fatalf("F1 at large x = %v, want ≈ k = 5", got)
	}
}

func TestF1EffectiveForceIsLinearSpring(t *testing.T) {
	// |F1(x)·x| = k·|x−r|: the Δz multiplication in Eq. (6)
	// regularises the 1/x singularity.
	k, r := 2.0, 3.0
	f := MustF1(ConstantMatrix(1, k), ConstantMatrix(1, r))
	for _, x := range []float64{0.01, 0.5, 1, 2.9, 3.1, 10} {
		got := math.Abs(f.Eval(0, 0, x) * x)
		want := k * math.Abs(x-r)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("|F1(x)·x| at x=%g: %v, want %v", x, got, want)
		}
	}
}

func TestF1TypeCountMismatch(t *testing.T) {
	if _, err := NewF1(ConstantMatrix(2, 1), ConstantMatrix(3, 1)); err == nil {
		t.Error("mismatched matrices accepted")
	}
}

func TestF2PaperRegimeIsRepulsionOnly(t *testing.T) {
	// σ = 1, τ > 1: F² ≤ 0 everywhere, 0 only at x = 0 in the limit.
	f := MustF2(ConstantMatrix(1, 1), ConstantMatrix(1, 1), ConstantMatrix(1, 5))
	for x := 0.05; x < 20; x += 0.05 {
		if f.Eval(0, 0, x) > 1e-12 {
			t.Fatalf("F2(σ=1,τ=5) positive at x=%g", x)
		}
	}
	if !math.IsNaN(f.PreferredDistance(0, 0)) {
		t.Error("repulsion-only F2 should have NaN preferred distance")
	}
}

func TestF2VanishesAtLargeDistance(t *testing.T) {
	f := MustF2(ConstantMatrix(1, 3), ConstantMatrix(1, 1), ConstantMatrix(1, 8))
	if math.Abs(f.Eval(0, 0, 50)) > 1e-12 {
		t.Error("F2 should vanish at large distance")
	}
}

func TestF2PreferredDistanceCrossingRegime(t *testing.T) {
	// σ > max(τ, 1): the wide weak Gaussian dominates at long range and
	// the function has a real repulsion→attraction crossing.
	f := MustF2(ConstantMatrix(1, 1), ConstantMatrix(1, 4), ConstantMatrix(1, 1))
	r := f.PreferredDistance(0, 0)
	if math.IsNaN(r) || r <= 0 {
		t.Fatalf("expected a crossing, got %v", r)
	}
	if got := f.Eval(0, 0, r); math.Abs(got) > 1e-9 {
		t.Fatalf("F2 at its preferred distance = %v, want 0", got)
	}
	if f.Eval(0, 0, r*0.9) >= 0 || f.Eval(0, 0, r*1.1) <= 0 {
		t.Error("crossing is not repulsion→attraction")
	}
}

func TestF2EqualWidthsNaN(t *testing.T) {
	f := MustF2(ConstantMatrix(1, 1), ConstantMatrix(1, 2), ConstantMatrix(1, 2))
	if !math.IsNaN(f.PreferredDistance(0, 0)) {
		t.Error("σ = τ should give NaN preferred distance")
	}
}

func TestF2RejectsNonPositiveWidths(t *testing.T) {
	if _, err := NewF2(ConstantMatrix(1, 1), ConstantMatrix(1, 0), ConstantMatrix(1, 1)); err == nil {
		t.Error("σ = 0 accepted")
	}
	if _, err := NewF2(ConstantMatrix(1, 1), ConstantMatrix(1, 1), ConstantMatrix(1, -2)); err == nil {
		t.Error("τ < 0 accepted")
	}
}

// Property: both force families are symmetric in the type pair, because the
// parameter matrices are — the precondition for Newton-pair accumulation in
// the simulator.
func TestScalingSymmetricInTypes(t *testing.T) {
	rng := rngx.New(3)
	f1 := RandomF1(5, 1, 10, 0.5, 5, rng)
	f2 := RandomF2(5, 1, 10, 1, 10, rng)
	for _, f := range []Scaling{f1, f2} {
		for a := 0; a < 5; a++ {
			for b := 0; b < 5; b++ {
				for _, x := range []float64{0.3, 1, 2.5, 7} {
					if f.Eval(a, b, x) != f.Eval(b, a, x) {
						t.Fatalf("%s not symmetric at (%d,%d,x=%g)", f.Name(), a, b, x)
					}
				}
			}
		}
	}
}

// scaled is a Scaling that is neither F1 nor F2; a Law must evaluate it
// through its Eval.
type scaled struct{ *F1 }

func (s scaled) Eval(a, b int, x float64) float64 { return 2 * s.F1.Eval(a, b, x) }

// A Law resolved once for type α gives, for every β and x, exactly the
// bits of Eqs. (7) and (8) as printed, whatever its previous family; a
// custom Scaling goes through its own Eval.
func TestLawMatchesTheEquations(t *testing.T) {
	rng := rngx.New(4)
	f1 := RandomF1(4, 1, 10, 0.5, 5, rng)
	f2 := MustF2(RandomMatrix(4, 1, 10, rng), RandomMatrix(4, 0.5, 3, rng), RandomMatrix(4, 1, 10, rng))
	eq7 := func(a, b int, x float64) float64 { return f1.K.At(a, b) * (1 - f1.R.At(a, b)/x) }
	eq := map[string]func(a, b int, x float64) float64{
		"F1": eq7,
		"F2": func(a, b int, x float64) float64 {
			s, t := f2.Sigma.At(a, b), f2.Tau.At(a, b)
			return f2.K.At(a, b) * (math.Exp(-x*x/(2*s))/(s*s) - math.Exp(-x*x/(2*t)))
		},
		"custom": func(a, b int, x float64) float64 { return 2 * eq7(a, b, x) },
	}
	var l Law // reused across families, as the simulator reuses it
	for _, f := range []Scaling{f1, f2, scaled{f1}, f1} {
		name := f.Name()
		if _, ok := f.(scaled); ok {
			name = "custom"
		}
		for a := 0; a < 4; a++ {
			l.Resolve(f, a)
			for b := 0; b < 4; b++ {
				for _, x := range []float64{0.1, 0.7, 1, 2.5, 7, 30} {
					want := math.Float64bits(eq[name](a, b, x))
					if got := math.Float64bits(l.At(b, x)); got != want {
						t.Fatalf("%s: Law(%d).At(%d, %g) bits %#x, want %#x", name, a, b, x, got, want)
					}
					if got := math.Float64bits(f.Eval(a, b, x)); got != want {
						t.Fatalf("%s: Eval(%d, %d, %g) bits %#x, want %#x", name, a, b, x, got, want)
					}
				}
			}
		}
	}
}

func TestRandomF2UsesUnitSigma(t *testing.T) {
	f := RandomF2(3, 1, 10, 1, 10, rngx.New(9))
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if f.Sigma.At(a, b) != 1 {
				t.Fatal("RandomF2 must fix σ = 1 (the paper's setting)")
			}
			tau := f.Tau.At(a, b)
			if tau < 1 || tau >= 10 {
				t.Fatalf("τ = %v out of [1,10)", tau)
			}
		}
	}
}

func TestCurve(t *testing.T) {
	f := MustF1(ConstantMatrix(1, 1), ConstantMatrix(1, 2))
	xs := mathx.Linspace(1, 4, 4)
	ys := Curve(f, 0, 0, xs)
	if len(ys) != 4 {
		t.Fatalf("Curve returned %d values", len(ys))
	}
	for i, x := range xs {
		if ys[i] != f.Eval(0, 0, x) {
			t.Fatal("Curve values disagree with Eval")
		}
	}
}

func TestNames(t *testing.T) {
	f1 := MustF1(ConstantMatrix(1, 1), ConstantMatrix(1, 1))
	f2 := MustF2(ConstantMatrix(1, 1), ConstantMatrix(1, 1), ConstantMatrix(1, 2))
	if f1.Name() != "F1" || f2.Name() != "F2" {
		t.Error("Name() values changed; experiment records depend on them")
	}
	if f1.Types() != 1 || f2.Types() != 1 {
		t.Error("Types() wrong")
	}
}
