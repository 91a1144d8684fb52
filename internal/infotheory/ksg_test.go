package infotheory

import (
	"math"
	"math/rand/v2"
	"testing"
)

// gaussianPair draws m samples of a correlated bivariate standard Gaussian
// and returns them as a two-variable dataset. True MI = −½·log₂(1−ρ²).
func gaussianPair(m int, rho float64, seed uint64) *Dataset {
	r := rand.New(rand.NewPCG(seed, seed^0xABCD))
	d := NewDataset(m, []int{1, 1})
	for s := 0; s < m; s++ {
		x := r.NormFloat64()
		y := rho*x + math.Sqrt(1-rho*rho)*r.NormFloat64()
		d.SetVar(s, 0, x)
		d.SetVar(s, 1, y)
	}
	return d
}

func gaussianPairTrueMI(rho float64) float64 {
	return -0.5 * math.Log2(1-rho*rho)
}

func independentDataset(m, n, dim int, seed uint64) *Dataset {
	r := rand.New(rand.NewPCG(seed, seed*31+7))
	dims := make([]int, n)
	for v := range dims {
		dims[v] = dim
	}
	d := NewDataset(m, dims)
	for s := 0; s < m; s++ {
		for v := 0; v < n; v++ {
			vals := make([]float64, dim)
			for i := range vals {
				vals[i] = r.NormFloat64()
			}
			d.SetVar(s, v, vals...)
		}
	}
	return d
}

func TestKSGIndependentIsNearZero(t *testing.T) {
	for _, variant := range []KSGVariant{KSG1, KSG2} {
		d := independentDataset(400, 4, 1, 11)
		got := NewEngine(0).MultiInfoKSGVariant(d, 4, variant)
		if math.Abs(got) > 0.25 {
			t.Errorf("%v on independent data = %v, want ≈ 0", variant, got)
		}
	}
}

func TestKSGBivariateGaussianMatchesClosedForm(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		want := gaussianPairTrueMI(rho)
		for _, variant := range []KSGVariant{KSG1, KSG2} {
			// Average over several datasets to beat sampling noise.
			var sum float64
			reps := 5
			for r := 0; r < reps; r++ {
				d := gaussianPair(500, rho, uint64(100+r))
				sum += NewEngine(0).MultiInfoKSGVariant(d, 4, variant)
			}
			got := sum / float64(reps)
			if math.Abs(got-want) > 0.15 {
				t.Errorf("%v rho=%v: got %v, want %v", variant, rho, got, want)
			}
		}
	}
}

func TestKSGMoreCorrelationMoreInformation(t *testing.T) {
	prev := -math.Inf(1)
	for _, rho := range []float64{0.0, 0.4, 0.8, 0.95} {
		d := gaussianPair(600, rho, 21)
		got := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
		if got <= prev {
			t.Fatalf("MI not increasing in rho: %v after %v", got, prev)
		}
		prev = got
	}
}

func TestKSGPaperVariantPositiveBias(t *testing.T) {
	// The formula exactly as printed (Eq. 18) lacks the −(n−1)/k
	// correction; on multivariate data it must exceed KSG2 by roughly
	// (n−1)/k nats — the documented reason it is not the default.
	d := independentDataset(300, 6, 1, 33)
	k := 4
	paper := NewEngine(0).MultiInfoKSGVariant(d, k, KSGPaper)
	ksg2 := NewEngine(0).MultiInfoKSGVariant(d, k, KSG2)
	gapBits := (float64(6-1) / float64(k)) / math.Ln2
	if paper-ksg2 < gapBits*0.5 {
		t.Errorf("paper variant bias %v bits, expected at least %v", paper-ksg2, gapBits*0.5)
	}
}

func TestKSGInsensitiveToK(t *testing.T) {
	// The paper reports similar results for k in 2..10.
	d := gaussianPair(600, 0.7, 55)
	ref := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	for _, k := range []int{2, 8} {
		got := NewEngine(0).MultiInfoKSGVariant(d, k, KSG2)
		if math.Abs(got-ref) > 0.2 {
			t.Errorf("k=%d estimate %v deviates from k=4 estimate %v", k, got, ref)
		}
	}
}

func TestKSGInvariantUnderPerVariableRigidMotion(t *testing.T) {
	// Multi-information is invariant under invertible per-variable
	// transformations; for 2-D observer variables a rigid motion applied
	// to ALL samples of one variable must leave the estimate unchanged
	// (distances within that variable are preserved exactly).
	d := independentDataset(200, 3, 2, 77)
	// Correlate var 0 and var 1 so the value is non-trivial.
	for s := 0; s < d.NumSamples(); s++ {
		v0 := d.Var(s, 0)
		d.SetVar(s, 1, v0[0]+0.1*d.Var(s, 1)[0], v0[1]+0.1*d.Var(s, 1)[1])
	}
	before := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	// Rotate variable 1 by 1.3 rad and translate it.
	c, si := math.Cos(1.3), math.Sin(1.3)
	for s := 0; s < d.NumSamples(); s++ {
		v := d.Var(s, 1)
		x, y := v[0], v[1]
		d.SetVar(s, 1, c*x-si*y+5, si*x+c*y-3)
	}
	after := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("estimate changed under rigid motion of one variable: %v -> %v", before, after)
	}
}

func TestKSGSingleVariableIsZero(t *testing.T) {
	d := independentDataset(50, 1, 2, 88)
	if got := NewEngine(0).MultiInfoKSGVariant(d, 4, KSGPaper); got != 0 {
		t.Fatalf("single-variable multi-info = %v", got)
	}
}

func TestKSGBadKPanics(t *testing.T) {
	d := independentDataset(10, 2, 1, 99)
	for _, k := range []int{0, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d should panic for m=10", k)
				}
			}()
			NewEngine(0).MultiInfoKSGVariant(d, k, KSGPaper)
		}()
	}
}

func TestKSGDeterministic(t *testing.T) {
	d := gaussianPair(200, 0.5, 123)
	a := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	b := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	if a != b {
		t.Fatal("estimator not deterministic")
	}
}

func TestKSGVariantStrings(t *testing.T) {
	if KSGPaper.String() != "ksg-paper" || KSG1.String() != "ksg1" || KSG2.String() != "ksg2" {
		t.Error("variant names changed; experiment records depend on them")
	}
	if KSGVariant(99).String() != "ksg-unknown" {
		t.Error("unknown variant string")
	}
}

// TestKSGAdditivityUnderGrouping: for independent groups, the between-group
// multi-information should be ≈ 0 while within-group terms carry all the
// correlation — the KSG-side counterpart of the exact discrete identity.
func TestKSGGroupedIndependentBlocks(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 17))
	m := 400
	d := NewDataset(m, []int{1, 1, 1, 1})
	for s := 0; s < m; s++ {
		a := r.NormFloat64()
		b := r.NormFloat64()
		d.SetVar(s, 0, a)
		d.SetVar(s, 1, a+0.3*r.NormFloat64())
		d.SetVar(s, 2, b)
		d.SetVar(s, 3, b+0.3*r.NormFloat64())
	}
	dec := Decompose(d, [][]int{{0, 1}, {2, 3}}, NewEngine(0).KSGVariantEstimator(4, KSG2))
	if math.Abs(dec.Between) > 0.3 {
		t.Errorf("between independent blocks = %v, want ≈ 0", dec.Between)
	}
	for g, w := range dec.Within {
		if w < 0.5 {
			t.Errorf("within group %d = %v, want clearly positive", g, w)
		}
	}
	total := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	if math.Abs(dec.Total()-total) > 0.6 {
		t.Errorf("decomposition total %v vs direct %v", dec.Total(), total)
	}
}
