package infotheory

import (
	"math"
	"sort"

	"repro/internal/mathx"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// KSGVariant selects which formulation of the Kraskov–Stögbauer–Grassberger
// estimator Engine.MultiInfoKSGVariant evaluates.
type KSGVariant int

const (
	// KSGPaper is the formulation printed in the paper (Eqs. 18–20):
	//
	//	I ≅ ψ(k) + (n−1)ψ(m) − ⟨ψ(c₁)+…+ψ(c_n)⟩
	//
	// where c_v counts the samples whose variable-v distance is
	// strictly smaller than the variable-v distance of the sample's
	// k-th joint neighbour, self excluded. It is KSG's second algorithm
	// without the −(n−1)/k correction term. Counts of zero (possible
	// with the strict inequality) are clamped to 1, where ψ(1) = −γ,
	// to keep the estimate finite; the clamp is exercised only on
	// degenerate data.
	KSGPaper KSGVariant = iota
	// KSG1 is Kraskov et al.'s first algorithm:
	//
	//	I ≅ ψ(k) + (n−1)ψ(m) − ⟨ψ(c₁+1)+…+ψ(c_n+1)⟩
	//
	// with c_v counting samples strictly within the joint k-th
	// neighbour distance ε(s) in the v-marginal.
	KSG1
	// KSG2 is Kraskov et al.'s second algorithm:
	//
	//	I ≅ ψ(k) − (n−1)/k + (n−1)ψ(m) − ⟨ψ(c₁)+…+ψ(c_n)⟩
	//
	// with c_v counting samples within (inclusive) the v-marginal
	// radius spanned by the k nearest joint neighbours.
	KSG2
)

// String returns the variant name used in experiment records.
func (v KSGVariant) String() string {
	switch v {
	case KSGPaper:
		return "ksg-paper"
	case KSG1:
		return "ksg1"
	case KSG2:
		return "ksg2"
	default:
		return "ksg-unknown"
	}
}

// multiInfoKSGBrute is the retained brute-force reference: O(m²·n)
// distance sweeps with a full (distance, index) sort per sample. The
// engine is required to reproduce it bit for bit (the equivalence
// property tests and BenchmarkKSGScaling run both). Neighbour ordering
// compares squared joint distances — sqrt is order-preserving but can
// round distinct squared distances to equal values, so comparing in
// squared space is what keeps one unambiguous (distance, index) order for
// both paths.
func multiInfoKSGBrute(d *Dataset, k int, variant KSGVariant) float64 {
	m := d.NumSamples()
	n := d.NumVars()
	if n < 2 {
		return 0
	}
	if k < 1 || k >= m {
		panic("infotheory: KSG needs 1 <= k < m")
	}

	// ψ(k) + (n−1)ψ(m) base term; KSG2 subtracts (n−1)/k.
	base := mathx.Digamma(float64(k)) + float64(n-1)*mathx.Digamma(float64(m))
	if variant == KSG2 {
		base -= float64(n-1) / float64(k)
	}

	// Scratch reused across samples.
	type nb struct {
		idx   int
		dist2 float64
	}
	neigh := make([]nb, 0, m-1)
	var psiSum mathx.KahanSum

	for s := 0; s < m; s++ {
		// Pass 1: squared joint distances to all other samples; select
		// the k nearest. With k ≪ m a full sort is wasteful — the tree
		// engine replaces it with bounded-heap queries.
		neigh = neigh[:0]
		for t := 0; t < m; t++ {
			if t == s {
				continue
			}
			neigh = append(neigh, nb{t, d.jointDist2(s, t)})
		}
		sort.Slice(neigh, func(a, b int) bool {
			if neigh[a].dist2 != neigh[b].dist2 {
				return neigh[a].dist2 < neigh[b].dist2
			}
			return neigh[a].idx < neigh[b].idx
		})

		for v := 0; v < n; v++ {
			// Marginal radius for this variable.
			var radius2 float64
			switch variant {
			case KSGPaper:
				// Distance to the k-th joint neighbour,
				// projected to variable v (Eq. 20).
				radius2 = d.varDist2(s, neigh[k-1].idx, v)
			case KSG1:
				// Joint k-th neighbour distance (max-norm
				// ball radius).
				dist := sqrt(neigh[k-1].dist2)
				radius2 = dist * dist
			case KSG2:
				// Largest v-marginal distance among the k
				// nearest joint neighbours.
				for j := 0; j < k; j++ {
					if d2 := d.varDist2(s, neigh[j].idx, v); d2 > radius2 {
						radius2 = d2
					}
				}
			}

			// Pass 2: marginal counts.
			c := 0
			for t := 0; t < m; t++ {
				if t == s {
					continue
				}
				d2 := d.varDist2(s, t, v)
				if variant == KSG2 {
					if d2 <= radius2 {
						c++
					}
				} else if d2 < radius2 {
					c++
				}
			}
			switch variant {
			case KSG1:
				c++ // ψ(c_v + 1)
			default:
				if c < 1 {
					c = 1 // clamp, see KSGPaper docs
				}
			}
			psiSum.Add(mathx.Digamma(float64(c)))
		}
	}
	nats := base - psiSum.Sum()/float64(m)
	return mathx.Log2(nats)
}
