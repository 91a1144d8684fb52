package forces

import (
	"fmt"
	"math"

	"repro/internal/rngx"
)

// Scaling is a force-scaling function F_αβ(x) in the sense of Eq. (6):
// given the types α, β of two interacting particles and their distance
// x = ‖Δz‖₂ > 0, Eval returns the scalar F whose contribution to particle
// i's velocity is −F·Δz_ij. Positive values attract, negative values repel.
type Scaling interface {
	// Eval returns F_αβ(x) for distance x > 0.
	Eval(alpha, beta int, x float64) float64
	// Types returns the number of particle types l the function is
	// parameterised for.
	Types() int
	// PreferredDistance returns the equilibrium distance of an isolated
	// α–β pair: the smallest x > 0 with F_αβ(x) = 0 and F crossing from
	// negative (repulsion) to positive (attraction). It returns NaN when
	// no such crossing exists (e.g. F² with σ = 1 is repulsion-only).
	PreferredDistance(alpha, beta int) float64
	// Name identifies the function family ("F1" or "F2") in experiment
	// records.
	Name() string
}

// Law is a force law with its first type fixed: F_αβ(x) for one α and
// every β. The simulator resolves particle i's Law once per step and
// evaluates it for each of i's pairs; for F1 and F2 that reads row α of
// each parameter matrix directly, with no interface call per pair, and
// any other Scaling falls back to its Eval. F1.Eval and F2.Eval evaluate
// through a Law too, so Eqs. (7) and (8) are each written once.
type Law struct {
	f1, f2  bool
	k, p, q []float64 // row α of K, and of R (F¹) or of Sigma and Tau (F²)
	s       Scaling   // any other Scaling
	alpha   int
}

// Resolve sets l to s's law for particles of type alpha, writing only
// the fields that law reads.
func (l *Law) Resolve(s Scaling, alpha int) {
	switch f := s.(type) {
	case *F1:
		l.f1, l.k, l.p = true, f.K.row(alpha), f.R.row(alpha)
	case *F2:
		l.f1, l.f2, l.k, l.p, l.q = false, true, f.K.row(alpha), f.Sigma.row(alpha), f.Tau.row(alpha)
	default:
		l.f1, l.f2, l.s, l.alpha = false, false, s, alpha
	}
}

// At returns F_αβ(x) for distance x > 0. F¹, Eq. (7), is evaluated
// inline: k·(1 − r/x).
func (l *Law) At(beta int, x float64) float64 {
	if l.f1 {
		return l.k[beta] * (1 - l.p[beta]/x)
	}
	return l.at(beta, x)
}

// at is At for F², Eq. (8), and for any other Scaling:
// k·((1/σ²)·e^{−x²/(2σ)} − e^{−x²/(2τ)}), with x² taken from x, not
// from the squared distance x came from.
func (l *Law) at(beta int, x float64) float64 {
	if !l.f2 {
		return l.s.Eval(l.alpha, beta, x)
	}
	k, s, t := l.k[beta], l.p[beta], l.q[beta]
	x2 := x * x
	return k * (math.Exp(-x2/(2*s))/(s*s) - math.Exp(-x2/(2*t)))
}

// F1 is the first force-scaling function of the paper, Eq. (7):
//
//	F¹_αβ(x) = k_αβ · (1 − r_αβ/x)
//
// It diverges to −∞ as x→0 (hard repulsion) and saturates at k_αβ for
// large x (long-range attraction, cut off only by the interaction radius
// rc). The preferred pair distance is exactly r_αβ. Note that the velocity
// contribution −F¹·Δz has magnitude k_αβ·|x − r_αβ|: Eq. (6)'s
// multiplication by the un-normalised Δz regularises the 1/x singularity,
// so the dynamics are a linear spring toward r_αβ.
type F1 struct {
	K Matrix // interaction strengths k_αβ ∈ [1, 10] in the paper
	R Matrix // preferred distances r_αβ
}

// NewF1 validates the parameter matrices and returns the scaling function.
func NewF1(k, r Matrix) (*F1, error) {
	if k.Len() != r.Len() {
		return nil, fmt.Errorf("forces: K has %d types but R has %d", k.Len(), r.Len())
	}
	return &F1{K: k, R: r}, nil
}

// MustF1 is NewF1 that panics on error.
func MustF1(k, r Matrix) *F1 {
	f, err := NewF1(k, r)
	if err != nil {
		panic(err)
	}
	return f
}

// Eval implements Scaling.
func (f *F1) Eval(alpha, beta int, x float64) float64 {
	var l Law
	l.Resolve(f, alpha)
	return l.At(beta, x)
}

// Types implements Scaling.
func (f *F1) Types() int { return f.K.Len() }

// PreferredDistance implements Scaling; for F¹ it is r_αβ directly.
func (f *F1) PreferredDistance(alpha, beta int) float64 { return f.R.At(alpha, beta) }

// Name implements Scaling.
func (f *F1) Name() string { return "F1" }

// F2 is the second force-scaling function of the paper, Eq. (8):
//
//	F²_αβ(x) = k_αβ · ( (1/σ²_αβ)·e^{−x²/(2σ_αβ)} − e^{−x²/(2τ_αβ)} )
//
// a difference of Gaussians. The paper fixes σ_αβ = 1 and draws
// τ_αβ ∈ [1, 10]; in that regime the function is ≤ 0 everywhere (pure
// finite-range repulsion, strongest at intermediate distance), which is
// what produces the regular-grid disc equilibria of Fig. 3 and the weaker
// attraction noted in Sec. 4.1. In the opposite regime σ > max(τ, 1) the
// short-range term is the weak-but-wide one (amplitude 1/σ² < 1, width σ)
// and the function acquires a genuine preferred distance: repulsion below
// the crossing, attraction above; the constructor supports both regimes.
type F2 struct {
	K     Matrix // interaction strengths
	Sigma Matrix // short-range Gaussian width parameters σ_αβ (paper: 1)
	Tau   Matrix // long-range Gaussian width parameters τ_αβ ∈ [1, 10]
}

// NewF2 validates the parameter matrices and returns the scaling function.
// All σ and τ entries must be positive.
func NewF2(k, sigma, tau Matrix) (*F2, error) {
	if k.Len() != sigma.Len() || k.Len() != tau.Len() {
		return nil, fmt.Errorf("forces: mismatched type counts K=%d Sigma=%d Tau=%d",
			k.Len(), sigma.Len(), tau.Len())
	}
	for a := 0; a < k.Len(); a++ {
		for b := a; b < k.Len(); b++ {
			if sigma.At(a, b) <= 0 || tau.At(a, b) <= 0 {
				return nil, fmt.Errorf("forces: non-positive width at (%d,%d)", a, b)
			}
		}
	}
	return &F2{K: k, Sigma: sigma, Tau: tau}, nil
}

// MustF2 is NewF2 that panics on error.
func MustF2(k, sigma, tau Matrix) *F2 {
	f, err := NewF2(k, sigma, tau)
	if err != nil {
		panic(err)
	}
	return f
}

// Eval implements Scaling.
func (f *F2) Eval(alpha, beta int, x float64) float64 {
	var l Law
	l.Resolve(f, alpha)
	return l.At(beta, x)
}

// Types implements Scaling.
func (f *F2) Types() int { return f.K.Len() }

// PreferredDistance implements Scaling. For F² the zero crossing exists in
// closed form: (1/σ²)e^{−x²/(2σ)} = e^{−x²/(2τ)} gives
//
//	x² = 2·ln(σ²) / (1/τ − 1/σ)   (requires a sign-consistent solution)
//
// When σ = τ or the right-hand side is non-positive, the crossing does not
// exist and NaN is returned (repulsion-only or attraction-only pair).
func (f *F2) PreferredDistance(alpha, beta int) float64 {
	s := f.Sigma.At(alpha, beta)
	t := f.Tau.At(alpha, beta)
	if s == t {
		return math.NaN()
	}
	x2 := 2 * math.Log(s*s) / (1/t - 1/s)
	if x2 <= 0 {
		return math.NaN()
	}
	x := math.Sqrt(x2)
	// A valid preferred distance must be a repulsion→attraction crossing:
	// F < 0 just below, F > 0 just above.
	if f.Eval(alpha, beta, x*0.99) < 0 && f.Eval(alpha, beta, x*1.01) > 0 {
		return x
	}
	return math.NaN()
}

// Name implements Scaling.
func (f *F2) Name() string { return "F2" }

// RandomF1 draws a random symmetric F¹ interaction: k_αβ uniform in
// [kLo, kHi), r_αβ uniform in [rLo, rHi). This is the generator behind the
// Fig. 9/10 experiments (r_αβ ∈ [2, 8], k_αβ = 1 is obtained with
// kLo = kHi-ε or the Constant helpers).
func RandomF1(l int, kLo, kHi, rLo, rHi float64, rng rngx.Source) *F1 {
	return MustF1(RandomMatrix(l, kLo, kHi, rng), RandomMatrix(l, rLo, rHi, rng))
}

// RandomF2 draws a random symmetric F² interaction with σ_αβ = 1 (the
// paper's setting) and k, τ uniform in the given ranges. The paper's Fig. 8
// describes its random F² types by "mutual preferred distance radii r_αβ
// between 1.0 and 5.0", but Eq. (8) with σ = 1 contains no r_αβ; we follow
// the stated parameter ranges (τ_αβ ∈ [1, 10]) instead, which spans the
// same one-parameter family of interaction shapes (see DESIGN.md,
// "Substitutions").
func RandomF2(l int, kLo, kHi, tauLo, tauHi float64, rng rngx.Source) *F2 {
	return MustF2(
		RandomMatrix(l, kLo, kHi, rng),
		ConstantMatrix(l, 1),
		RandomMatrix(l, tauLo, tauHi, rng),
	)
}

// Curve samples F_αβ on the given distances; used to regenerate Fig. 2 and
// by the force-shape tests.
func Curve(f Scaling, alpha, beta int, xs []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f.Eval(alpha, beta, x)
	}
	return ys
}
