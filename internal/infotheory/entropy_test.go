package infotheory

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestKLEntropyStandardGaussian(t *testing.T) {
	// h(N(0,1)) = ½·log₂(2πe) ≈ 2.047 bits.
	want := 0.5 * math.Log2(2*math.Pi*math.E)
	r := rand.New(rand.NewPCG(1, 2))
	var sum float64
	reps := 5
	for rep := 0; rep < reps; rep++ {
		d := NewDataset(600, []int{1})
		for s := 0; s < 600; s++ {
			d.SetVar(s, 0, r.NormFloat64())
		}
		sum += NewEngine(0).DifferentialEntropyKL(d, []int{0}, 4)
	}
	got := sum / float64(reps)
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("KL entropy of N(0,1) = %v, want %v", got, want)
	}
}

func TestKLEntropyUniform(t *testing.T) {
	// h(U[0,1]) = 0 bits; h(U[0,4]) = 2 bits (scaling adds log₂ 4).
	r := rand.New(rand.NewPCG(3, 4))
	d1 := NewDataset(800, []int{1})
	d4 := NewDataset(800, []int{1})
	for s := 0; s < 800; s++ {
		u := r.Float64()
		d1.SetVar(s, 0, u)
		d4.SetVar(s, 0, 4*u)
	}
	h1 := NewEngine(0).DifferentialEntropyKL(d1, []int{0}, 4)
	h4 := NewEngine(0).DifferentialEntropyKL(d4, []int{0}, 4)
	if math.Abs(h1) > 0.1 {
		t.Errorf("h(U[0,1]) = %v, want 0", h1)
	}
	if math.Abs(h4-h1-2) > 0.05 {
		t.Errorf("scaling law broken: h(U[0,4])−h(U[0,1]) = %v, want 2", h4-h1)
	}
}

func TestKLEntropyJoint2D(t *testing.T) {
	// Independent 2-D standard Gaussian: h = 2·½ log₂(2πe).
	want := math.Log2(2 * math.Pi * math.E)
	r := rand.New(rand.NewPCG(5, 6))
	d := NewDataset(800, []int{2})
	for s := 0; s < 800; s++ {
		d.SetVar(s, 0, r.NormFloat64(), r.NormFloat64())
	}
	got := NewEngine(0).DifferentialEntropyKL(d, []int{0}, 4)
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("joint 2-D Gaussian entropy = %v, want %v", got, want)
	}
}

func TestKLEntropyDuplicatesFinite(t *testing.T) {
	d := NewDataset(10, []int{1})
	for s := 0; s < 10; s++ {
		d.SetVar(s, 0, 1.0) // all identical
	}
	got := NewEngine(0).DifferentialEntropyKL(d, []int{0}, 2)
	if math.IsNaN(got) || math.IsInf(got, 1) {
		t.Fatalf("degenerate data gave %v", got)
	}
}

func TestKLEntropyBadKPanics(t *testing.T) {
	d := NewDataset(5, []int{1})
	defer func() {
		if recover() == nil {
			t.Error("k >= m should panic")
		}
	}()
	NewEngine(0).DifferentialEntropyKL(d, []int{0}, 5)
}

func TestLogUnitBallVolume(t *testing.T) {
	// c₁ = 2, c₂ = π, c₃ = 4π/3.
	cases := []struct {
		d    int
		want float64
	}{
		{1, math.Log(2)},
		{2, math.Log(math.Pi)},
		{3, math.Log(4 * math.Pi / 3)},
	}
	for _, c := range cases {
		if got := logUnitBallVolume(c.d); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("log c_%d = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestEntropiesProfileMatchesKSGOnPair(t *testing.T) {
	// The entropy-difference multi-information must agree with the KSG
	// estimate within estimator tolerance.
	d := gaussianPair(500, 0.8, 42)
	p := NewEngine(0).Entropies(d, 4)
	direct := NewEngine(0).MultiInfoKSGVariant(d, 4, KSG2)
	if math.Abs(p.MultiInfo()-direct) > 0.3 {
		t.Fatalf("entropy-difference MI %v vs KSG %v", p.MultiInfo(), direct)
	}
	want := gaussianPairTrueMI(0.8)
	if math.Abs(p.MultiInfo()-want) > 0.3 {
		t.Fatalf("entropy-difference MI %v vs truth %v", p.MultiInfo(), want)
	}
}

func TestEntropiesNarrative(t *testing.T) {
	// The paper's Fig. 4 narrative: for independent variables,
	// Σ marginal ≈ joint; for correlated variables the joint entropy
	// drops below the marginal sum.
	ind := independentDataset(400, 3, 1, 77)
	pInd := NewEngine(0).Entropies(ind, 4)
	if math.Abs(pInd.MultiInfo()) > 0.3 {
		t.Errorf("independent profile MI = %v, want ≈ 0", pInd.MultiInfo())
	}
	r := rand.New(rand.NewPCG(9, 10))
	cor := NewDataset(400, []int{1, 1, 1})
	for s := 0; s < 400; s++ {
		z := r.NormFloat64()
		for v := 0; v < 3; v++ {
			cor.SetVar(s, v, z+0.2*r.NormFloat64())
		}
	}
	pCor := NewEngine(0).Entropies(cor, 4)
	if pCor.Joint >= pCor.MarginalSum-1 {
		t.Errorf("correlated joint entropy %v should sit well below marginal sum %v",
			pCor.Joint, pCor.MarginalSum)
	}
}
