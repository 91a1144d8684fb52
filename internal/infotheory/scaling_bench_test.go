package infotheory

import (
	"fmt"
	"math/rand"
	"testing"
)

// scalingDataset draws m samples of n 2-D observer variables with a
// shared latent component, the shape of one pipeline time step: the
// variables are correlated (MI > 0) so neighbour radii and marginal
// counts look like real aligned-ensemble data rather than pure noise.
func scalingDataset(m, n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	dims := make([]int, n)
	for v := range dims {
		dims[v] = 2
	}
	d := NewDataset(m, dims)
	for s := 0; s < m; s++ {
		lx, ly := r.NormFloat64(), r.NormFloat64()
		for v := 0; v < n; v++ {
			vals := d.Var(s, v)
			vals[0] = lx + 0.7*r.NormFloat64()
			vals[1] = ly + 0.7*r.NormFloat64()
		}
	}
	return d
}

var scalingSink float64

// BenchmarkKSGScaling is the estimator-engine trajectory benchmark: the
// default pipeline estimator (KSG-2, k = 4) on one time-step-shaped
// dataset, brute vs exact tier vs approximate tier, across the ensemble
// sizes of the roadmap (M = 128 quick scale, 500 paper scale,
// 2000/5000/50000 beyond). The tree/m=… rows are the exact tier, whose
// indexes take knn's tree-or-scan choice: the 16-D joint scans at every
// size and the 2-D marginals scan up to m = 5000, so these rows build
// trees only for the m = 50000 marginals. The name stays because the CI
// guard and the trajectory key on it. Engines are warmed before timing,
// so the B/op columns demonstrate the steady-state 0 allocs/op
// contract; the brute rows (capped at m = 5000 — O(m²) is the wall the
// engine removes) document the baseline. Both approximate-tier rows use the
// BenchSubsample(m) evaluation budget: the approx rows re-estimate one
// identical dataset, an input no pipeline produces, while the
// approx-steps rows (m ≤ 5000) cycle three same-shaped datasets drawn
// with different seeds, the traffic a pipeline estimation worker serves
// as it moves from one recorded step to the next. The m = 50000 rows are
// skipped under -short (the CI race job); the bench job uploads the full
// exact-vs-approximate curves side by side as the ksg-scaling artifact,
// and EXPERIMENTS.md holds a reference table.
func BenchmarkKSGScaling(b *testing.B) {
	const n, k = 8, DefaultBenchK
	for _, m := range []int{128, 500, 2000, 5000, 50000} {
		if m > 5000 && testing.Short() {
			continue
		}
		d := scalingDataset(m, n, int64(m))
		b.Run(fmt.Sprintf("tree/m=%d", m), func(b *testing.B) {
			e := NewEngine(0)
			scalingSink = e.MultiInfoKSGVariant(d, k, KSG2) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scalingSink = e.MultiInfoKSGVariant(d, k, KSG2)
			}
		})
		b.Run(fmt.Sprintf("approx/m=%d", m), func(b *testing.B) {
			e := NewEngine(0)
			opts := ApproxOptions{Subsample: BenchSubsample(m), Seed: uint64(m)}
			// Warm twice; the second call keeps the row comparable with
			// earlier entries of the trajectory.
			est := e.MultiInfoKSGApprox(d, k, KSG2, opts)
			est = e.MultiInfoKSGApprox(d, k, KSG2, opts)
			scalingSink = est.MI
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scalingSink = e.MultiInfoKSGApprox(d, k, KSG2, opts).MI
			}
		})
		if m > 5000 {
			continue
		}
		steps := []*Dataset{d, scalingDataset(m, n, int64(m)+1), scalingDataset(m, n, int64(m)+2)}
		b.Run(fmt.Sprintf("approx-steps/m=%d", m), func(b *testing.B) {
			e := NewEngine(0)
			opts := ApproxOptions{Subsample: BenchSubsample(m), Seed: uint64(m)}
			for _, step := range steps {
				scalingSink = e.MultiInfoKSGApprox(step, k, KSG2, opts).MI
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Sequence = uint64(i)
				scalingSink = e.MultiInfoKSGApprox(steps[i%len(steps)], k, KSG2, opts).MI
			}
		})
		b.Run(fmt.Sprintf("brute/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scalingSink = multiInfoKSGBrute(d, k, KSG2)
			}
		})
	}
}

// BenchSubsample is the approximate tier's benchmark evaluation budget:
// r = m/16 (at least 32), a ~6% subsample whose reported error bars stay
// a few hundredths of a bit on pipeline-shaped data.
func BenchSubsample(m int) int {
	r := m / 16
	if r < 32 {
		r = 32
	}
	if r > m {
		r = m
	}
	return r
}

// DefaultBenchK mirrors experiment.DefaultKSGK without importing the
// experiment package (which would cycle).
const DefaultBenchK = 4

// BenchmarkKLScaling tracks the entropy-profile path (Kozachenko–
// Leonenko joint entropy) on the same datasets; TrackEntropies pipelines
// spend most of their estimation budget here. Its 16-D joint index
// scans at every size, as knn's rule picks for kNN queries above 8
// dimensions.
func BenchmarkKLScaling(b *testing.B) {
	const n, k = 8, DefaultBenchK
	for _, m := range []int{128, 500, 2000} {
		d := scalingDataset(m, n, int64(m))
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		b.Run(fmt.Sprintf("tree/m=%d", m), func(b *testing.B) {
			e := NewEngine(0)
			scalingSink = e.DifferentialEntropyKL(d, all, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scalingSink = e.DifferentialEntropyKL(d, all, k)
			}
		})
		b.Run(fmt.Sprintf("brute/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scalingSink = differentialEntropyKLBrute(d, all, k)
			}
		})
	}
}
