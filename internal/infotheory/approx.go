package infotheory

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/rngx"
)

// Approximate estimator tier.
//
// The exact tier evaluates the KSG sum at every one of the m samples,
// one k-nearest-neighbour query and n range counts each. The
// approximate tier keeps the neighbour structure exact but evaluates
// the sample average at r ≪ m subsampled evaluation points:
//
//	I ≅ ψ(k) + (n−1)ψ(m) − (1/r) Σ_{s ∈ S, |S|=r} Σ_v ψ(c_v(s))
//
// It is a subsample of the exact tier's computation: the same trees
// (buildKSGTrees) and the same per-sample terms (ksgTerms), evaluated at
// the drawn samples only. Counts c_v(s) still range over all m samples,
// so each evaluated term is exactly the term the full estimator would
// produce; only the outer average is subsampled, making the estimate an
// unbiased Monte-Carlo draw of the full-m estimate (in ψ-space) with a
// computable standard error. Evaluation points are drawn by a
// rngx.Stream seeded only from caller-supplied (Seed, Sequence) — never
// from engine state — so results are bit-identical across Workers
// settings, engine reuse histories, and kill/resume.
//
// The error bar is the finite-population-corrected standard error of
// the subsample mean of the per-point terms a_s = −Σ_v ψ(c_v(s)):
//
//	SE = sd(a_s)/√r · √((m−r)/(m−1))    (in nats; reported in bits)
//
// with the 95% normal interval MI ± 1.96·SE. At r = m the correction
// is 0: every point is evaluated and the interval collapses.

// ApproxOptions configures one approximate-tier evaluation.
type ApproxOptions struct {
	// Subsample is r, the number of evaluation points; 1 ≤ r ≤ m.
	Subsample int
	// Seed and Sequence identify the subsample draw: the stream is
	// rngx.NewStream(Seed, Sequence). Derive Sequence from stable task
	// coordinates (e.g. the pipeline step index), never from engine
	// state, to keep results schedule-independent.
	Seed, Sequence uint64
}

// ApproxEstimate is the result of one approximate-tier evaluation: the
// estimate with its subsampling uncertainty, all in bits.
type ApproxEstimate struct {
	MI            float64 // subsampled estimate
	StdErr        float64 // standard error of MI from the subsampling
	CILow, CIHigh float64 // MI ∓ 1.96·StdErr
	Evals         int     // evaluation points actually used (= r)
}

// MultiInfoKSGApprox estimates the multi-information in bits on the
// approximate tier: the KSG sum of MultiInfoKSGVariant subsampled at
// opts.Subsample evaluation points (marginal counts still over all m
// samples), with the subsampling standard error and 95% interval. See
// the tier contract at the top of this file; results are bit-identical
// for every Workers setting and depend only on (d, k, variant, opts).
func (e *Engine) MultiInfoKSGApprox(d *Dataset, k int, variant KSGVariant, opts ApproxOptions) ApproxEstimate {
	m := d.NumSamples()
	n := d.NumVars()
	if n < 2 {
		return ApproxEstimate{}
	}
	if k < 1 || k >= m {
		panic("infotheory: KSG needs 1 <= k < m")
	}
	r := opts.Subsample
	if r < 1 || r > m {
		panic("infotheory: approximate KSG needs 1 <= Subsample <= m")
	}

	e.buildKSGTrees(d)

	if cap(e.sampleIdx) < m {
		e.sampleIdx = make([]int32, m)
	}
	stream := rngx.NewStream(opts.Seed, opts.Sequence)
	stream.SampleInto(e.sampleIdx[:m], m, r)

	e.psi = growFloats(e.psi, r*n)
	e.aVals = growFloats(e.aVals, r)
	if workers := e.workerCount(r); workers == 1 {
		e.approxChunk(d, k, variant, 0, 0, r)
	} else {
		e.runParallel(workers, r, func(worker, lo, hi int) {
			e.approxChunk(d, k, variant, worker, lo, hi)
		})
	}
	return SubsampleEstimate(ksgBase(k, m, n, variant), e.aVals[:r], m)
}

// approxChunk evaluates the terms of draw positions [lo, hi) into
// e.aVals, using the given worker's scratch: draw i's per-variable ψ
// terms go to its own stretch of e.psi, and its term is their negated
// sum −Σ_v ψ(c_v(s)).
func (e *Engine) approxChunk(d *Dataset, k int, variant KSGVariant, worker, lo, hi int) {
	n := d.NumVars()
	sc := &e.scratch[worker]
	for i := lo; i < hi; i++ {
		psi := e.psi[i*n : (i+1)*n]
		e.ksgTerms(d, k, variant, sc, int(e.sampleIdx[i]), psi)
		var a float64
		for _, p := range psi {
			a -= p
		}
		e.aVals[i] = a
	}
}

// SubsampleEstimate is the reduction both approximate tiers share (this
// package's KSG and infodynamics' conditional mutual information). terms
// holds the per-draw terms a_s of r = len(terms) evaluation points drawn
// without replacement from m samples, in draw order, and the full-sample
// estimate is base + ⟨a⟩ nats. It returns that estimate from the
// draw-order Kahan mean of the terms, with the finite-population-
// corrected standard error and the 95% interval, all in bits.
func SubsampleEstimate(base float64, terms []float64, m int) ApproxEstimate {
	r := len(terms)
	var sum mathx.KahanSum
	for _, a := range terms {
		sum.Add(a)
	}
	mean := sum.Sum() / float64(r)

	var se float64
	if r > 1 && m > 1 {
		var devSum mathx.KahanSum
		for _, a := range terms {
			dev := a - mean
			devSum.Add(dev * dev)
		}
		s2 := devSum.Sum() / float64(r-1)
		fpc := math.Sqrt(float64(m-r) / float64(m-1))
		se = math.Sqrt(s2/float64(r)) * fpc
	}

	est := ApproxEstimate{
		MI:     mathx.Log2(base + mean),
		StdErr: mathx.Log2(se), // nats → bits
		Evals:  r,
	}
	est.CILow = est.MI - 1.96*est.StdErr
	est.CIHigh = est.MI + 1.96*est.StdErr
	return est
}
