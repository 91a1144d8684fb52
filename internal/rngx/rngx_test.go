package rngx

import (
	"math"
	"testing"
)

func TestNewIsDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestSplitIsStable(t *testing.T) {
	a := Split(7, 3)
	b := Split(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split not stable")
		}
	}
}

func TestSplitStreamsAreIndependentOfCreationOrder(t *testing.T) {
	// Stream 5 must be the same whether or not other streams were made.
	first := Split(99, 5).Uint64()
	_ = Split(99, 0).Uint64()
	_ = Split(99, 1).Uint64()
	second := Split(99, 5).Uint64()
	if first != second {
		t.Fatal("stream depends on creation order")
	}
}

func TestSplitStreamsDecorrelated(t *testing.T) {
	// Adjacent streams must not produce correlated output; check the
	// first draws of 1000 consecutive streams look uniform.
	n := 1000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Split(123, uint64(i)).Float64()
	}
	mean := sum / float64(n)
	// Uniform(0,1) mean 0.5, std of the mean ≈ 0.289/√1000 ≈ 0.009.
	if math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("stream first-draw mean = %v, want ≈ 0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	n := 200000
	mean, variance := 1.5, 0.05 // the paper's noise variance
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal(mean, variance)
		sum += x
		sumSq += x * x
	}
	m := sum / float64(n)
	v := sumSq/float64(n) - m*m
	if math.Abs(m-mean) > 0.01 {
		t.Errorf("sample mean = %v, want %v", m, mean)
	}
	if math.Abs(v-variance) > 0.005 {
		t.Errorf("sample variance = %v, want %v", v, variance)
	}
}

func TestNormalZeroVariance(t *testing.T) {
	r := New(1)
	if x := r.Normal(3, 0); x != 3 {
		t.Fatalf("Normal(3,0) = %v", x)
	}
}

func TestNormalNegativeVariancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative variance should panic")
		}
	}()
	New(1).Normal(0, -1)
}

func TestUniformInRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		x := r.UniformIn(2, 8)
		if x < 2 || x >= 8 {
			t.Fatalf("UniformIn out of range: %v", x)
		}
	}
}

func TestUniformDiscStatistics(t *testing.T) {
	r := New(11)
	radius := 5.0
	n := 100000
	inside, inHalfRadius := 0, 0
	var sx, sy float64
	for i := 0; i < n; i++ {
		x, y := r.UniformDisc(radius)
		d2 := x*x + y*y
		if d2 <= radius*radius {
			inside++
		}
		if d2 <= radius*radius/4 {
			inHalfRadius++
		}
		sx += x
		sy += y
	}
	if inside != n {
		t.Fatalf("%d/%d points outside the disc", n-inside, n)
	}
	// Uniform area ⇒ quarter of the mass within half the radius.
	frac := float64(inHalfRadius) / float64(n)
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("mass within r/2 = %v, want 0.25 (area-uniform)", frac)
	}
	if math.Abs(sx/float64(n)) > 0.05 || math.Abs(sy/float64(n)) > 0.05 {
		t.Errorf("disc mean = (%v,%v), want ≈ origin", sx/float64(n), sy/float64(n))
	}
}

func TestUniformDiscConstantConsumption(t *testing.T) {
	// UniformDisc must consume exactly two draws per call: the
	// trajectory-invariance property tests rely on deterministic
	// stream alignment.
	a := New(77)
	b := New(77)
	a.UniformDisc(3)
	b.Float64()
	b.Float64()
	if a.Float64() != b.Float64() {
		t.Fatal("UniformDisc consumed a variable number of draws")
	}
}

func TestStreamGolden(t *testing.T) {
	// Streams feed deterministic subsample selection in the approximate
	// estimator tier; these pinned values freeze the output sequence —
	// changing them invalidates every approximate-tier result identity.
	s := NewStream(42, 7)
	want := []uint64{
		0xa242ac9783e3cfad,
		0x5f97b4c05e4aad3a,
		0x2f5a473856a559e7,
		0xf963ed0cfe1604de,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("Stream(42,7) draw %d = %#016x, want %#016x", i, got, w)
		}
	}
	s2 := NewStream(3, 0)
	var dst [10]int32
	got := s2.SampleInto(dst[:], 10, 4)
	wantSample := []int32{5, 6, 9, 1}
	for i := range wantSample {
		if got[i] != wantSample[i] {
			t.Fatalf("SampleInto = %v, want %v", got, wantSample)
		}
	}
}

func TestStreamIndependentOfCreationOrder(t *testing.T) {
	first := NewStream(99, 5)
	a := first.Uint64()
	_ = NewStream(99, 0)
	_ = NewStream(99, 1)
	second := NewStream(99, 5)
	if b := second.Uint64(); a != b {
		t.Fatal("Stream depends on creation order")
	}
}

func TestStreamDistinctFromSplit(t *testing.T) {
	// Stream(seed, i) and Split(seed, i) must draw from decorrelated
	// sequences: experiment code uses both against one master seed.
	sp := Split(17, 4)
	st := NewStream(17, 4)
	same := 0
	for i := 0; i < 100; i++ {
		if sp.Uint64() == st.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from Split and Stream", same)
	}
}

func TestStreamIntNUniform(t *testing.T) {
	s := NewStream(8, 8)
	const n, buckets = 100000, 10
	var counts [buckets]int
	for i := 0; i < n; i++ {
		v := s.IntN(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("IntN out of range: %d", v)
		}
		counts[v]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ≈ 0.1", b, frac)
		}
	}
}

func TestStreamIntNRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntN(0) should panic")
		}
	}()
	s := NewStream(1, 1)
	s.IntN(0)
}

func TestSampleIntoIsDistinctSubset(t *testing.T) {
	s := NewStream(5, 2)
	dst := make([]int32, 50)
	for trial := 0; trial < 200; trial++ {
		r := 1 + s.IntN(50)
		sample := s.SampleInto(dst, 50, r)
		if len(sample) != r {
			t.Fatalf("len = %d, want %d", len(sample), r)
		}
		seen := make(map[int32]bool, r)
		for _, v := range sample {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("not a distinct subset of [0,50): %v", sample)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntoFullDrawIsPermutation(t *testing.T) {
	s := NewStream(6, 3)
	dst := make([]int32, 20)
	p := s.SampleInto(dst, 20, 20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestSampleIntoIsUniform checks SampleInto's inclusion probabilities
// against a uniform r-subset's: P(i ∈ S) = r/m and P(i, j ∈ S) =
// r(r−1)/(m(m−1)). Over 200,000 draws of 3 from 10 at a fixed (seed,
// stream), Pearson's χ² of the singleton counts (9 df) and of the pair
// counts (44 df) must stay below their 0.001 upper quantiles.
func TestSampleIntoIsUniform(t *testing.T) {
	const draws, m, r = 200000, 10, 3
	s := NewStream(2012, 6)
	dst := make([]int32, m)
	var single [m]int
	var pair [m][m]int
	for range draws {
		sample := s.SampleInto(dst, m, r)
		for a, i := range sample {
			single[i]++
			for _, j := range sample[a+1:] {
				pair[min(i, j)][max(i, j)]++
			}
		}
	}
	chi2 := func(obs []int, want float64) float64 {
		x := 0.0
		for _, o := range obs {
			x += (float64(o) - want) * (float64(o) - want) / want
		}
		return x
	}
	var pairs []int
	for i := range m {
		pairs = append(pairs, pair[i][i+1:]...)
	}
	if x := chi2(single[:], draws*r/float64(m)); x >= 27.88 {
		t.Errorf("singleton χ² = %.2f over 9 df, want < 27.88 (counts %v)", x, single)
	} else {
		t.Logf("singleton χ² = %.2f over 9 df", x)
	}
	if x := chi2(pairs, draws*r*(r-1)/float64(m*(m-1))); x >= 78.75 {
		t.Errorf("pair χ² = %.2f over 44 df, want < 78.75", x)
	} else {
		t.Logf("pair χ² = %.2f over 44 df", x)
	}
}

func TestStreamZeroAlloc(t *testing.T) {
	// The whole point of Stream over Split: usable in 0 allocs/op
	// steady-state paths.
	s := NewStream(12, 34)
	dst := make([]int32, 1000)
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.SampleInto(dst, 1000, 100)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocates %v per run, want 0", allocs)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
