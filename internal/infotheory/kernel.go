package infotheory

import (
	"math"

	"repro/internal/mathx"
)

// kernelEntropyBrute is the retained reference implementation of the
// leave-one-out KDE differential entropy (bits) of the joint distribution
// of the given variables; the engine must reproduce it bit for bit.
func kernelEntropyBrute(d *Dataset, vars []int) float64 {
	m := d.NumSamples()
	if m < 2 {
		return 0
	}
	// Flatten the selected variables into rows of total dimension D.
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

	// Scott's rule bandwidth per dimension: h_d = σ_d · m^(−1/(D+4)),
	// floored to avoid degenerate zero-variance dimensions.
	h := make([]float64, D)
	factor := math.Pow(float64(m), -1/(float64(D)+4))
	for dim := 0; dim < D; dim++ {
		col := make([]float64, m)
		for s := 0; s < m; s++ {
			col[s] = rows[s][dim]
		}
		sd := mathx.StdDev(col)
		if !(sd > 0) || math.IsNaN(sd) {
			sd = 1e-12
		}
		h[dim] = sd * factor
	}

	// ln of the product-kernel normalisation: Π_d 1/(√(2π)·h_d).
	logNorm := 0.0
	for _, hd := range h {
		logNorm -= math.Log(math.Sqrt(2*math.Pi) * hd)
	}

	var ent mathx.KahanSum
	for s := 0; s < m; s++ {
		// p̂₋ₛ(x_s) = 1/(m−1) Σ_{t≠s} Π_d K_h(x_s,d − x_t,d).
		// Work in log space via max-shift for stability.
		logs := make([]float64, 0, m-1)
		for t := 0; t < m; t++ {
			if t == s {
				continue
			}
			e := 0.0
			for dim := 0; dim < D; dim++ {
				diff := (rows[s][dim] - rows[t][dim]) / h[dim]
				e -= 0.5 * diff * diff
			}
			logs = append(logs, e)
		}
		logP := logSumExp(logs) + logNorm - math.Log(float64(m-1))
		ent.Add(-logP)
	}
	return mathx.Log2(ent.Sum() / float64(m))
}

func logSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}
