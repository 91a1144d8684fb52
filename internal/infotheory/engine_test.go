package infotheory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// engineDataset draws a random dataset with occasional duplicated samples
// and grid-snapped coordinates, so distance ties and the duplicate-clamp
// paths are exercised alongside the generic case.
func engineDataset(r *rand.Rand, m, n, maxDim int) *Dataset {
	dims := make([]int, n)
	for v := range dims {
		dims[v] = 1 + r.Intn(maxDim)
	}
	return engineDatasetDims(r, m, dims)
}

// engineDatasetDims is engineDataset with the variable dimensions given.
func engineDatasetDims(r *rand.Rand, m int, dims []int) *Dataset {
	n := len(dims)
	d := NewDataset(m, dims)
	for s := 0; s < m; s++ {
		for v := 0; v < n; v++ {
			vals := d.Var(s, v)
			for i := range vals {
				if r.Intn(3) == 0 {
					vals[i] = float64(r.Intn(4)) // exact ties
				} else {
					vals[i] = r.NormFloat64()
				}
			}
		}
	}
	for dup := 0; dup < m/10; dup++ {
		copy(d.Row(r.Intn(m)), d.Row(r.Intn(m)))
	}
	return d
}

// Property: the tree engine reproduces the brute-force reference bit for
// bit — same float64, not approximately — for every KSG variant, for the
// KL entropy over arbitrary variable subsets, and for the kernel
// baseline; and the result is independent of the Workers setting. One
// reused engine serves all shapes.
func TestEngineBitIdenticalToBrute(t *testing.T) {
	reused := NewEngine(0)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 12 + r.Intn(28)
		n := 2 + r.Intn(4)
		d := engineDataset(r, m, n, 3)
		k := 1 + r.Intn(4)

		for _, variant := range []KSGVariant{KSGPaper, KSG1, KSG2} {
			want := multiInfoKSGBrute(d, k, variant)
			if got := reused.MultiInfoKSGVariant(d, k, variant); got != want {
				t.Logf("seed %d: KSG %v: engine %v, brute %v", seed, variant, got, want)
				return false
			}
			par := NewEngine(1 + r.Intn(4))
			if got := par.MultiInfoKSGVariant(d, k, variant); got != want {
				t.Logf("seed %d: KSG %v with %d workers: engine %v, brute %v", seed, variant, par.Workers, got, want)
				return false
			}
		}

		vars := []int{r.Intn(n)}
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 && v != vars[0] {
				vars = append(vars, v)
			}
		}
		wantKL := differentialEntropyKLBrute(d, vars, k)
		if got := reused.DifferentialEntropyKL(d, vars, k); got != wantKL {
			t.Logf("seed %d: KL vars %v: engine %v, brute %v", seed, vars, got, wantKL)
			return false
		}

		wantKernel := func() float64 {
			var sum float64
			for v := 0; v < n; v++ {
				sum += kernelEntropyBrute(d, []int{v})
			}
			all := make([]int, n)
			for v := range all {
				all[v] = v
			}
			return sum - kernelEntropyBrute(d, all)
		}()
		if got := reused.MultiInfoKernel(d); got != wantKernel {
			t.Logf("seed %d: kernel: engine %v, brute %v", seed, got, wantKernel)
			return false
		}
		if got := NewEngine(1 + r.Intn(4)).MultiInfoKernel(d); got != wantKernel {
			t.Logf("seed %d: parallel kernel: engine %v, brute %v", seed, got, wantKernel)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: bit-identity holds for variables wide enough that the joint
// space exceeds 16 dimensions, past every dimension knn's tree-or-scan
// rule was measured at.
func TestEngineBitIdenticalToBruteHighDim(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 12 + r.Intn(16)
		d := engineDataset(r, m, 2, 18) // joint dim can exceed 16
		k := 1 + r.Intn(3)
		var e Engine
		for _, variant := range []KSGVariant{KSGPaper, KSG1, KSG2} {
			if e.MultiInfoKSGVariant(d, k, variant) != multiInfoKSGBrute(d, k, variant) {
				return false
			}
		}
		all := []int{0, 1}
		return e.DifferentialEntropyKL(d, all, k) == differentialEntropyKLBrute(d, all, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the entropy profile is bit-identical to composing the brute
// KL estimator, and stable across Workers.
func TestEngineEntropiesMatchBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 12 + r.Intn(20)
		n := 2 + r.Intn(3)
		d := engineDataset(r, m, n, 2)
		k := 1 + r.Intn(3)
		var want EntropyProfile
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		want.Joint = differentialEntropyKLBrute(d, all, k)
		for v := 0; v < n; v++ {
			want.MarginalSum += differentialEntropyKLBrute(d, []int{v}, k)
		}
		for _, workers := range []int{0, 3} {
			if got := NewEngine(workers).Entropies(d, k); got != want {
				t.Logf("seed %d workers %d: %+v, want %+v", seed, workers, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// treeShapeM is a sample count at which knn's rule builds tree nodes
// for every index of a dataset of two 1-D variables: the 2-D joint and
// the 1-D KL indexes answer kNN queries (tree at every size) and the 1-D
// marginals answer counts (tree from the table's 5000 points, so from
// 3163, the geometric midpoint of 2000 and 5000).
const treeShapeM = 3200

// Property: bit-identity holds where Rebuild picks tree nodes, not only
// where it scans — the joint kNN over two blocks, the marginal counts
// and the KL kNN all run on trees at treeShapeM samples.
func TestEngineBitIdenticalToBruteOnTrees(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	d := engineDatasetDims(r, treeShapeM, []int{1, 1})
	var e Engine
	for _, k := range []int{1, 4} {
		for _, variant := range []KSGVariant{KSGPaper, KSG1, KSG2} {
			got := e.MultiInfoKSGVariant(d, k, variant)
			if !e.joint.TreeBacked() || !e.marg[0].TreeBacked() || !e.marg[1].TreeBacked() {
				t.Fatal("KSG indexes scan; the shape no longer reaches the tree path")
			}
			if want := multiInfoKSGBrute(d, k, variant); got != want {
				t.Errorf("k=%d KSG %v: engine %v, brute %v", k, variant, got, want)
			}
		}
		for _, vars := range [][]int{{0}, {0, 1}} {
			got := e.DifferentialEntropyKL(d, vars, k)
			if !e.flat.TreeBacked() {
				t.Fatal("KL index scans; the shape no longer reaches the tree path")
			}
			if want := differentialEntropyKLBrute(d, vars, k); got != want {
				t.Errorf("k=%d KL vars %v: engine %v, brute %v", k, vars, got, want)
			}
		}
	}
}

// Steady-state estimation on same-shaped datasets must not allocate: the
// trees, scratch matrices and digamma stores are all recycled, for the
// three KSG variants, the KL and the kernel estimators alike. One shape
// (six 2-D variables, m = 96) scans its KSG indexes, the other builds
// trees for all of them.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const k = 4
	for _, d := range []*Dataset{
		engineDatasetDims(r, 96, []int{2, 2, 2, 2, 2, 2}),
		engineDatasetDims(r, treeShapeM, []int{1, 1}),
	} {
		m := d.NumSamples()
		e := NewEngine(0)
		e.MultiInfoKSGVariant(d, k, KSG2) // warm-up
		e.Entropies(d, k)
		e.MultiInfoKernel(d)
		if tree := m == treeShapeM; e.joint.TreeBacked() != tree || e.marg[0].TreeBacked() != tree {
			t.Fatalf("m=%d: joint tree %v, marginal tree %v, want %v", m, e.joint.TreeBacked(), e.marg[0].TreeBacked(), tree)
		}
		refill := func() {
			for s := 0; s < m; s++ {
				row := d.Row(s)
				for i := range row {
					row[i] = r.NormFloat64()
				}
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			refill()
			e.MultiInfoKSGVariant(d, k, KSG1)
			e.MultiInfoKSGVariant(d, k, KSG2)
			e.MultiInfoKSGVariant(d, k, KSGPaper)
			e.Entropies(d, k)
			e.MultiInfoKernel(d)
		})
		if allocs != 0 {
			t.Errorf("m=%d: steady-state estimation allocates %v allocs/op, want 0", m, allocs)
		}
	}
}

// Regression (duplicate-sample rule): a single duplicated pair must shift
// the KL entropy estimate by an in-distribution amount, not inject the
// ≈ −10³-bit outlier the old 1e-300 floor produced.
func TestKLEntropyDuplicateClamp(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const m = 60
	d := NewDataset(m, []int{1})
	for s := 0; s < m; s++ {
		d.Var(s, 0)[0] = r.NormFloat64()
	}
	clean := NewEngine(0).DifferentialEntropyKL(d, []int{0}, 1)
	copy(d.Row(1), d.Row(0)) // one exact duplicate pair
	dup := NewEngine(0).DifferentialEntropyKL(d, []int{0}, 1)
	if math.IsInf(dup, 0) || math.IsNaN(dup) {
		t.Fatalf("duplicate pair made the estimate non-finite: %v", dup)
	}
	if diff := math.Abs(dup - clean); diff > 3 {
		t.Errorf("duplicate pair shifted the estimate by %v bits (clean %v, dup %v); want an in-distribution shift", diff, clean, dup)
	}
	// Old behaviour for reference: two ε = 1e-300 terms contribute
	// 2·log(1e-300)/m ≈ −23 nats to the mean — a catastrophic outlier.

	// Fully atomic data: every ε is zero, the entropy is −Inf by the
	// documented rule.
	for s := 0; s < m; s++ {
		d.Var(s, 0)[0] = 2.5
	}
	if got := NewEngine(0).DifferentialEntropyKL(d, []int{0}, 1); !math.IsInf(got, -1) {
		t.Errorf("all-identical samples: entropy = %v, want -Inf", got)
	}
}

// The engine must keep working when one instance is reused across
// datasets of different shapes (the Decompose call pattern: full set,
// grouped views, per-group selections, interleaved).
func TestEngineReuseAcrossShapes(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	e := NewEngine(2)
	for trial := 0; trial < 10; trial++ {
		d := engineDataset(r, 10+r.Intn(30), 2+r.Intn(5), 3)
		k := 1 + r.Intn(3)
		for _, variant := range []KSGVariant{KSGPaper, KSG1, KSG2} {
			if got, want := e.MultiInfoKSGVariant(d, k, variant), multiInfoKSGBrute(d, k, variant); got != want {
				t.Fatalf("trial %d variant %v: reused engine %v, brute %v", trial, variant, got, want)
			}
		}
		if d.NumVars() >= 3 {
			sub := d.Select([]int{0, 2})
			if got, want := e.MultiInfoKSGVariant(sub, k, KSG2), multiInfoKSGBrute(sub, k, KSG2); got != want {
				t.Fatalf("trial %d: reused engine on selected view %v, brute %v", trial, got, want)
			}
			// Grouped views merge variables into wide joint blocks,
			// with more than two coordinates each.
			cut := 1 + r.Intn(d.NumVars()-1)
			var g1, g2 []int
			for v := 0; v < d.NumVars(); v++ {
				if v < cut {
					g1 = append(g1, v)
				} else {
					g2 = append(g2, v)
				}
			}
			grp := d.Grouped([][]int{g1, g2})
			if got, want := e.MultiInfoKSGVariant(grp, k, KSG2), multiInfoKSGBrute(grp, k, KSG2); got != want {
				t.Fatalf("trial %d: reused engine on grouped view %v, brute %v", trial, got, want)
			}
		}
	}
}
