package infotheory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func quickDataset(r *rand.Rand, m, n int) *Dataset {
	dims := make([]int, n)
	for v := range dims {
		dims[v] = 1 + r.Intn(2)
	}
	d := NewDataset(m, dims)
	for s := 0; s < m; s++ {
		for v := 0; v < n; v++ {
			vals := d.Var(s, v)
			for i := range vals {
				vals[i] = r.NormFloat64()
			}
		}
	}
	return d
}

// Property: multi-information is invariant under permutation of the
// observer variables (Eq. 3 is symmetric), for all KSG variants.
func TestQuickKSGVariablePermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 24 + r.Intn(16)
		n := 2 + r.Intn(4)
		d := quickDataset(r, m, n)
		perm := r.Perm(n)
		shuffled := d.Select(perm)
		for _, variant := range []KSGVariant{KSGPaper, KSG1, KSG2} {
			a := NewEngine(0).MultiInfoKSGVariant(d, 3, variant)
			b := NewEngine(0).MultiInfoKSGVariant(shuffled, 3, variant)
			if math.Abs(a-b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Select of all variables in order reproduces the dataset; the
// estimate is unchanged.
func TestQuickSelectIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := quickDataset(r, 20+r.Intn(10), 2+r.Intn(3))
		all := make([]int, d.NumVars())
		for v := range all {
			all[v] = v
		}
		sel := d.Select(all)
		for s := 0; s < d.NumSamples(); s++ {
			for v := 0; v < d.NumVars(); v++ {
				a, b := d.Var(s, v), sel.Var(s, v)
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
		}
		return NewEngine(0).MultiInfoKSGVariant(d, 3, KSG2) == NewEngine(0).MultiInfoKSGVariant(sel, 3, KSG2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: grouping every variable into its own singleton group leaves
// the joint metric unchanged, so the grouped estimate equals the original.
func TestQuickSingletonGroupingIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := quickDataset(r, 20+r.Intn(10), 2+r.Intn(3))
		groups := make([][]int, d.NumVars())
		for v := range groups {
			groups[v] = []int{v}
		}
		g := d.Grouped(groups)
		return NewEngine(0).MultiInfoKSGVariant(d, 3, KSG2) == NewEngine(0).MultiInfoKSGVariant(g, 3, KSG2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the discrete decomposition identity (Eq. 5) holds exactly for
// arbitrary random discrete data and arbitrary contiguous groupings.
func TestQuickDiscreteDecompositionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 30 + r.Intn(40)
		n := 4 + r.Intn(3)
		rows := make([][]int, m)
		for s := range rows {
			row := make([]int, n)
			for v := range row {
				row[v] = r.Intn(3)
			}
			rows[s] = row
		}
		d := NewDiscreteDataset(rows)
		// Split variables into two contiguous groups at a random cut.
		cut := 1 + r.Intn(n-1)
		g1 := make([]int, 0, cut)
		g2 := make([]int, 0, n-cut)
		all := make([]int, n)
		for v := 0; v < n; v++ {
			all[v] = v
			if v < cut {
				g1 = append(g1, v)
			} else {
				g2 = append(g2, v)
			}
		}
		total := d.MultiInfo(all)
		decomposed := d.MultiInfoGrouped([][]int{g1, g2}) + d.MultiInfo(g1) + d.MultiInfo(g2)
		return math.Abs(total-decomposed) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: discrete entropy is bounded by 0 ≤ H ≤ log₂(support size) and
// invariant under relabeling of values.
func TestQuickDiscreteEntropyBoundsAndRelabeling(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 10 + r.Intn(60)
		rows := make([][]int, m)
		support := map[int]bool{}
		for s := range rows {
			v := r.Intn(6)
			rows[s] = []int{v}
			support[v] = true
		}
		d := NewDiscreteDataset(rows)
		h := d.Entropy(0)
		if h < -1e-12 || h > math.Log2(float64(len(support)))+1e-12 {
			return false
		}
		// Relabel: v → 7·v + 3 is injective on small ints.
		relabeled := make([][]int, m)
		for s := range rows {
			relabeled[s] = []int{7*rows[s][0] + 3}
		}
		h2 := NewDiscreteDataset(relabeled).Entropy(0)
		return math.Abs(h-h2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the KSG estimate is invariant under a global rigid shift of
// every variable (translation invariance of the metric), for random data.
func TestQuickKSGTranslationInvariance(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		d := quickDataset(r, 25, 3)
		before := NewEngine(0).MultiInfoKSGVariant(d, 3, KSG2)
		for s := 0; s < d.NumSamples(); s++ {
			for v := 0; v < d.NumVars(); v++ {
				vals := d.Var(s, v)
				for i := range vals {
					vals[i] += shift
				}
			}
		}
		after := NewEngine(0).MultiInfoKSGVariant(d, 3, KSG2)
		return math.Abs(before-after) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
