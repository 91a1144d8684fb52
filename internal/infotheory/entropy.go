package infotheory

import (
	"math"
	"sort"

	"repro/internal/mathx"
)

// differentialEntropyKLBrute is the retained brute-force reference
// (O(m²·D) sweeps with a full sort per sample); the engine must
// reproduce it bit for bit.
func differentialEntropyKLBrute(d *Dataset, vars []int, k int) float64 {
	m := d.NumSamples()
	if k < 1 || k >= m {
		panic("infotheory: KL entropy needs 1 <= k < m")
	}
	D := 0
	for _, v := range vars {
		D += d.Dim(v)
	}
	rows := make([][]float64, m)
	for s := 0; s < m; s++ {
		row := make([]float64, 0, D)
		for _, v := range vars {
			row = append(row, d.Var(s, v)...)
		}
		rows[s] = row
	}

	eps := make([]float64, m)
	dists := make([]float64, 0, m-1)
	for s := 0; s < m; s++ {
		dists = dists[:0]
		for t := 0; t < m; t++ {
			if t == s {
				continue
			}
			var d2 float64
			for i := range rows[s] {
				diff := rows[s][i] - rows[t][i]
				d2 += diff * diff
			}
			dists = append(dists, d2)
		}
		sort.Float64s(dists)
		eps[s] = math.Sqrt(dists[k-1])
	}
	return klReduce(eps, k, D)
}

// klReduce finishes the Kozachenko–Leonenko estimate from the per-sample
// k-th-neighbour distances, applying the duplicate rule documented on
// Engine.DifferentialEntropyKL. Both the brute reference and the tree engine end
// in this exact reduction (fixed summation order), which is what makes
// their results — and the engine's results for any Workers setting —
// bit-identical.
func klReduce(eps []float64, k, D int) float64 {
	m := len(eps)
	minPos := math.Inf(1)
	for _, e := range eps {
		if e > 0 && e < minPos {
			minPos = e
		}
	}
	if math.IsInf(minPos, 1) {
		// Every sample has ≥ k exact duplicates: the empirical
		// distribution is purely atomic.
		return math.Inf(-1)
	}
	var sumLogEps mathx.KahanSum
	for _, e := range eps {
		if e <= 0 {
			e = minPos
		}
		sumLogEps.Add(math.Log(e))
	}
	nats := mathx.Digamma(float64(m)) - mathx.Digamma(float64(k)) +
		logUnitBallVolume(D) + float64(D)*sumLogEps.Sum()/float64(m)
	return mathx.Log2(nats)
}

// logUnitBallVolume returns ln of the volume of the D-dimensional unit
// ball, c_D = π^{D/2} / Γ(D/2 + 1).
func logUnitBallVolume(D int) float64 {
	lg, _ := math.Lgamma(float64(D)/2 + 1)
	return float64(D)/2*math.Log(math.Pi) - lg
}

// EntropyProfile summarises the entropy structure of one observer dataset:
// the joint differential entropy, the sum of marginal observer entropies,
// and their difference (which is exactly the multi-information, Eq. 3,
// evaluated with the same entropy estimator).
type EntropyProfile struct {
	// Joint is ĥ(W₁,…,W_n) in bits.
	Joint float64
	// MarginalSum is Σ_v ĥ(W_v) in bits.
	MarginalSum float64
}

// MultiInfo returns MarginalSum − Joint, the entropy-difference form of
// multi-information.
func (p EntropyProfile) MultiInfo() float64 { return p.MarginalSum - p.Joint }
