package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/infotheory"
	"repro/internal/mathx"
	"repro/internal/rngx"
	"repro/internal/workpool"
)

// ComparisonRow summarises one estimator's behaviour on a ground-truth
// benchmark distribution.
type ComparisonRow struct {
	Estimator string
	// Mean and Std are over the repeated estimates (bits).
	Mean, Std float64
	// Bias is Mean − TrueMI; RMSE the root-mean-square error.
	Bias, RMSE float64
	// PerEval is the average wall time of one estimate.
	PerEval time.Duration
}

// ComparisonTable is the estimator comparison of Sec. 5.3: KSG vs a
// Gaussian-kernel estimator vs shrinkage binning, on equicorrelated
// Gaussian data with analytically known multi-information.
type ComparisonTable struct {
	NVars, M int
	Rho      float64
	TrueMI   float64
	Rows     []ComparisonRow
}

// GaussianTrueMI returns the exact multi-information, in bits, of n jointly
// Gaussian scalar variables with pairwise correlation rho (equicorrelation
// matrix R): I = −½·log₂ det R = −½·log₂[(1−ρ)^{n−1}·(1+(n−1)ρ)].
func GaussianTrueMI(n int, rho float64) float64 {
	det := math.Pow(1-rho, float64(n-1)) * (1 + float64(n-1)*rho)
	return -0.5 * math.Log2(det)
}

// SampleEquicorrelatedGaussians draws m samples of n scalar variables with
// the equicorrelation structure corr(X_a, X_b) = rho (a ≠ b), via the
// one-factor construction X_v = √ρ·Z + √(1−ρ)·ξ_v. Requires 0 ≤ rho < 1.
func SampleEquicorrelatedGaussians(m, n int, rho float64, rng rngx.Source) *infotheory.Dataset {
	if rho < 0 || rho >= 1 {
		panic("experiment: rho must be in [0,1)")
	}
	dims := make([]int, n)
	for v := range dims {
		dims[v] = 1
	}
	d := infotheory.NewDataset(m, dims)
	a := math.Sqrt(rho)
	b := math.Sqrt(1 - rho)
	for s := 0; s < m; s++ {
		z := rng.NormFloat64()
		for v := 0; v < n; v++ {
			d.SetVar(s, v, a*z+b*rng.NormFloat64())
		}
	}
	return d
}

// EstimatorComparison runs every estimator `reps` times on fresh
// equicorrelated Gaussian datasets (n variables, m samples, correlation
// rho) and reports bias, spread and timing against the analytic truth.
// The continuous estimators run on infotheory.Engine — the tree-
// accelerated stack the measurement pipeline actually executes, with one
// engine per worker slot so scratch recycling matches the pipeline's
// per-worker reuse (the brute-force definitions remain the estimator
// packages' test reference, not what is timed here). The reps run on one
// worker per token of tok, each holding a token per rep (nil = serial);
// estimates are bit-identical for every budget, and PerEval is the mean
// of the individually timed evaluations, so it stays meaningful under
// concurrency.
//
// Expected shape (paper, Sec. 5.3): KSG is fast and low-variance; the
// kernel estimator is orders of magnitude slower with larger variance in
// higher dimension; the binned estimator overestimates grossly in high
// dimension.
func EstimatorComparison(ctx context.Context, tok *workpool.Tokens, nVars, m, reps int, rho float64, kKSG int, seed uint64) (*ComparisonTable, error) {
	if kKSG <= 0 {
		kKSG = DefaultKSGK
	}
	if reps < 1 {
		return nil, fmt.Errorf("experiment: EstimatorComparison needs reps >= 1, got %d", reps)
	}
	if kKSG >= m {
		return nil, fmt.Errorf("experiment: EstimatorComparison needs k (%d) < m (%d)", kKSG, m)
	}
	table := &ComparisonTable{
		NVars:  nVars,
		M:      m,
		Rho:    rho,
		TrueMI: GaussianTrueMI(nVars, rho),
	}
	type namedEst struct {
		name string
		fn   func(eng *infotheory.Engine, d *infotheory.Dataset) float64
	}
	ests := []namedEst{
		{"ksg-paper", func(eng *infotheory.Engine, d *infotheory.Dataset) float64 {
			return eng.MultiInfoKSGVariant(d, kKSG, infotheory.KSGPaper)
		}},
		{"ksg1", func(eng *infotheory.Engine, d *infotheory.Dataset) float64 {
			return eng.MultiInfoKSGVariant(d, kKSG, infotheory.KSG1)
		}},
		{"ksg2", func(eng *infotheory.Engine, d *infotheory.Dataset) float64 {
			return eng.MultiInfoKSGVariant(d, kKSG, infotheory.KSG2)
		}},
		{"kernel", func(eng *infotheory.Engine, d *infotheory.Dataset) float64 {
			return eng.MultiInfoKernel(d)
		}},
		{"binned-js", func(_ *infotheory.Engine, d *infotheory.Dataset) float64 {
			return infotheory.MultiInfoBinned(d, infotheory.BinnedOptions{})
		}},
		{"binned-ml", func(_ *infotheory.Engine, d *infotheory.Dataset) float64 {
			return infotheory.MultiInfoBinned(d, infotheory.BinnedOptions{PlainML: true})
		}},
	}
	// Pre-draw the datasets so every estimator sees the same data.
	datasets := make([]*infotheory.Dataset, reps)
	for r := range datasets {
		datasets[r] = SampleEquicorrelatedGaussians(m, nVars, rho, rngx.Split(seed, uint64(r)))
	}
	// One engine per worker slot, shared across estimators: trees and
	// scratch are recycled call to call exactly as a pipeline estimation
	// worker recycles them. An engine is never used concurrently — a slot
	// processes one job at a time.
	engines := make([]*infotheory.Engine, reps)
	vals := make([]float64, reps)
	durs := make([]time.Duration, reps)
	for _, e := range ests {
		err := workpool.RunCtx(ctx, reps, tok.Cap(), tok, func(worker, r int) error {
			eng := engines[worker]
			if eng == nil {
				eng = infotheory.NewEngine(0)
				engines[worker] = eng
			}
			// The PerEval column is wall-clock by definition: it reports
			// how long an estimator takes, never feeds a result value,
			// and is excluded from checkpoints and fingerprints.
			start := time.Now()
			vals[r] = e.fn(eng, datasets[r])
			durs[r] = time.Since(start)
			return nil
		})
		if err != nil {
			return nil, err
		}
		mean := mathx.Mean(vals)
		std := mathx.StdDev(vals)
		if reps < 2 {
			std = 0
		}
		var mse float64
		var total time.Duration
		for r, v := range vals {
			mse += mathx.Sq(v - table.TrueMI)
			total += durs[r]
		}
		mse /= float64(reps)
		table.Rows = append(table.Rows, ComparisonRow{
			Estimator: e.name,
			Mean:      mean,
			Std:       std,
			Bias:      mean - table.TrueMI,
			RMSE:      math.Sqrt(mse),
			PerEval:   total / time.Duration(reps),
		})
	}
	return table, nil
}

// String renders the table for the CLI and EXPERIMENTS.md.
func (t *ComparisonTable) String() string {
	s := fmt.Sprintf("estimator comparison: n=%d vars, m=%d samples, rho=%.2f, true MI=%.3f bits\n",
		t.NVars, t.M, t.Rho, t.TrueMI)
	s += fmt.Sprintf("%-10s %10s %10s %10s %10s %14s\n", "estimator", "mean", "std", "bias", "rmse", "time/eval")
	for _, r := range t.Rows {
		s += fmt.Sprintf("%-10s %10.3f %10.3f %10.3f %10.3f %14s\n",
			r.Estimator, r.Mean, r.Std, r.Bias, r.RMSE, r.PerEval)
	}
	return s
}
