package infotheory

import (
	"math"
	"sync"

	"repro/internal/knn"
	"repro/internal/mathx"
)

// Engine evaluates the continuous estimators — the KSG multi-information
// variants, the Kozachenko–Leonenko differential entropy and the
// Gaussian-kernel baseline — on the shared exact nearest-neighbour core
// (package knn: k-d tree nodes or a scan, per index), with reusable
// scratch storage.
// After warm-up, estimating same-shaped datasets performs no heap
// allocation (with Workers ≤ 1), the same recycle pattern as
// spatial.DenseGrid and align.Aligner. Both KSG tiers run on one set of
// trees and one per-sample term function: the exact tier evaluates the
// terms at every sample, the approximate tier (approx.go) at a drawn
// subsample.
//
// Every estimate is bit-identical to the retained brute-force reference
// implementations (and therefore to the pre-engine code): knn
// evaluates the same floating-point distance expressions, breaks
// neighbour ties by sample index exactly as a (distance, index) sort
// does, and the per-sample digamma/log terms are reduced in the same
// fixed order regardless of Workers.
//
// An Engine is not safe for concurrent use; give each goroutine its own
// (experiment.Pipeline does, one per estimation worker). The zero value
// is ready to use.
type Engine struct {
	// Workers bounds the within-dataset sample parallelism: samples of
	// one estimate are partitioned across this many goroutines. 0 or 1
	// runs serially (and allocation-free in steady state); results are
	// bit-identical for every setting.
	Workers int

	joint   knn.Tree
	blocks  []knn.Block
	marg    []knn.Tree
	margPts [][]float64
	flat    knn.Tree
	flatPts []float64
	psi     []float64 // per-(sample,variable) digamma / per-sample log terms
	eps     []float64 // per-sample k-th neighbour distances (KL)
	h       []float64 // per-dimension kernel bandwidths
	col     []float64 // one flattened column (bandwidth estimation)
	allVars []int
	oneVar  [1]int
	scratch []workerScratch

	// Approximate-tier draw scratch (see approx.go): the sample indices,
	// whose first r entries are the draw, and the per-draw term sums.
	sampleIdx []int32
	aVals     []float64
}

// workerScratch is the per-goroutine query state of one engine worker.
type workerScratch struct {
	neigh []knn.Neighbor
	logs  []float64
}

// NewEngine returns an estimator engine with the given within-dataset
// sample parallelism (see Engine.Workers; 0 or 1 means serial).
func NewEngine(sampleWorkers int) *Engine { return &Engine{Workers: sampleWorkers} }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// workerCount resolves the effective sample parallelism for m samples and
// makes sure per-worker scratch exists. The serial case (1) is kept
// closure-free by the callers so steady-state estimation never allocates.
func (e *Engine) workerCount(m int) int {
	workers := e.Workers
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, workerScratch{})
	}
	return workers
}

// runParallel partitions [0, m) into contiguous chunks across workers
// goroutines and runs fn on each; fn receives the worker id for scratch
// selection. Only called with workers ≥ 2 (the goroutine spawn and the
// fn closure allocate, which the serial path must avoid).
func (e *Engine) runParallel(workers, m int, fn func(worker, lo, hi int)) {
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// KSGVariantEstimator returns a specific KSG formulation bound to this
// engine as an Estimator closure.
func (e *Engine) KSGVariantEstimator(k int, v KSGVariant) Estimator {
	return func(d *Dataset) float64 { return e.MultiInfoKSGVariant(d, k, v) }
}

// MultiInfoKSGVariant estimates the multi-information I(X₁,…,X_n) of the
// dataset in bits with the given formulation of the KSG estimator (see
// KSGVariant; KSGPaper is the paper's Eqs. 18–20, KSG2 the bias-corrected
// default of the pipelines) under the paper's joint metric (Eq. 19): the
// maximum over variables of the per-variable Euclidean norm. The variants
// agree asymptotically and differ by small-sample bias (see the ablation
// benchmark BenchmarkAblationKSGVariants). The paper uses k = 4 or 5 and
// reports the estimate to be insensitive to k in the 2–10 range.
//
// A dataset with fewer than two variables has multi-information 0 by
// definition. k must satisfy 1 ≤ k < m. One joint knn index under the
// joint metric answers the k-nearest-neighbour queries, and one
// per-variable index answers the marginal range counts.
func (e *Engine) MultiInfoKSGVariant(d *Dataset, k int, variant KSGVariant) float64 {
	m := d.NumSamples()
	n := d.NumVars()
	if n < 2 {
		return 0
	}
	if k < 1 || k >= m {
		panic("infotheory: KSG needs 1 <= k < m")
	}

	e.buildKSGTrees(d)

	// Per-(sample, variable) digamma terms; reduced in fixed order below
	// so the result does not depend on Workers.
	e.psi = growFloats(e.psi, m*n)
	if workers := e.workerCount(m); workers == 1 {
		e.ksgChunk(d, k, variant, 0, 0, m)
	} else {
		e.runParallel(workers, m, func(worker, lo, hi int) {
			e.ksgChunk(d, k, variant, worker, lo, hi)
		})
	}

	var psiSum mathx.KahanSum
	for _, p := range e.psi[:m*n] {
		psiSum.Add(p)
	}
	nats := ksgBase(k, m, n, variant) - psiSum.Sum()/float64(m)
	return mathx.Log2(nats)
}

// ksgBase is the ψ(k) + (n−1)ψ(m) term of every KSG variant, less KSG2's
// (n−1)/k correction.
func ksgBase(k, m, n int, variant KSGVariant) float64 {
	base := mathx.Digamma(float64(k)) + float64(n-1)*mathx.Digamma(float64(m))
	if variant == KSG2 {
		base -= float64(n-1) / float64(k)
	}
	return base
}

// buildKSGTrees indexes d for the KSG terms of both tiers: one joint
// tree directly over the dataset's contiguous rows, whose variable
// layout supplies the Eq. (19) blocks, and one tree per variable for the
// marginal counts, over flattened copies of the variable's columns.
func (e *Engine) buildKSGTrees(d *Dataset) {
	m, n := d.NumSamples(), d.NumVars()
	e.blocks = e.blocks[:0]
	for v := 0; v < n; v++ {
		e.blocks = append(e.blocks, knn.Block{Off: d.offsets[v], Len: d.dims[v]})
	}
	e.joint.Rebuild(d.data, m, d.rowLen, knn.MaxEuclidean2, e.blocks, knn.Nearest)

	for len(e.marg) < n {
		e.marg = append(e.marg, knn.Tree{})
		e.margPts = append(e.margPts, nil)
	}
	for v := 0; v < n; v++ {
		w := d.dims[v]
		pts := growFloats(e.margPts[v], m*w)
		for s := 0; s < m; s++ {
			copy(pts[s*w:(s+1)*w], d.Var(s, v))
		}
		e.margPts[v] = pts
		e.marg[v].Rebuild(pts, m, w, knn.MaxEuclidean2, nil, knn.Count)
	}
}

// ksgChunk evaluates the per-(sample, variable) digamma terms of samples
// [lo, hi) into e.psi, using the given worker's scratch.
func (e *Engine) ksgChunk(d *Dataset, k int, variant KSGVariant, worker, lo, hi int) {
	n := d.NumVars()
	sc := &e.scratch[worker]
	for s := lo; s < hi; s++ {
		e.ksgTerms(d, k, variant, sc, s, e.psi[s*n:(s+1)*n])
	}
}

// ksgTerms writes sample s's per-variable digamma terms ψ(c_v(s)) into
// psi (one per variable), querying the trees buildKSGTrees built over d.
// Both tiers evaluate their terms here: the exact tier at every sample,
// the approximate tier at the drawn ones.
func (e *Engine) ksgTerms(d *Dataset, k int, variant KSGVariant, sc *workerScratch, s int, psi []float64) {
	nbs := e.joint.KNearest(d.Row(s), k, int32(s), sc.neigh)
	sc.neigh = nbs
	for v := range psi {
		var radius2 float64
		switch variant {
		case KSGPaper:
			// Distance to the k-th joint neighbour, projected to
			// variable v (Eq. 20).
			radius2 = d.varDist2(s, int(nbs[k-1].Index), v)
		case KSG1:
			// Joint k-th neighbour distance (max-norm ball radius);
			// squared via sqrt to match the reference expression bit
			// for bit.
			dist := sqrt(nbs[k-1].Dist)
			radius2 = dist * dist
		case KSG2:
			// Largest v-marginal distance among the k nearest joint
			// neighbours.
			for j := 0; j < k; j++ {
				if d2 := d.varDist2(s, int(nbs[j].Index), v); d2 > radius2 {
					radius2 = d2
				}
			}
		}
		c := e.marg[v].CountWithin(d.Var(s, v), radius2, variant == KSG2, int32(s))
		switch variant {
		case KSG1:
			c++ // ψ(c_v + 1)
		default:
			if c < 1 {
				c = 1 // clamp, see KSGPaper docs
			}
		}
		psi[v] = mathx.Digamma(float64(c))
	}
}

// flatten returns the selected variables of every sample as a flat
// matrix of m rows × D columns (the concatenation order of vars). The
// identity selection is served by the dataset's own row storage, which
// already has exactly that layout; any other selection is copied into
// the engine's flat scratch.
func (e *Engine) flatten(d *Dataset, vars []int) (pts []float64, D int) {
	if identitySelection(d, vars) {
		return d.data, d.rowLen
	}
	for _, v := range vars {
		D += d.Dim(v)
	}
	m := d.NumSamples()
	e.flatPts = growFloats(e.flatPts, m*D)
	for s := 0; s < m; s++ {
		pos := s * D
		for _, v := range vars {
			src := d.Var(s, v)
			copy(e.flatPts[pos:pos+len(src)], src)
			pos += len(src)
		}
	}
	return e.flatPts, D
}

// identitySelection reports whether vars is exactly 0..n-1 in order.
func identitySelection(d *Dataset, vars []int) bool {
	if len(vars) != d.NumVars() {
		return false
	}
	for i, v := range vars {
		if v != i {
			return false
		}
	}
	return true
}

// identityVars fills and returns the engine's cached 0..n-1 selection
// for the dataset.
func (e *Engine) identityVars(d *Dataset) []int {
	if cap(e.allVars) < d.NumVars() {
		e.allVars = make([]int, d.NumVars())
	}
	e.allVars = e.allVars[:d.NumVars()]
	for v := range e.allVars {
		e.allVars[v] = v
	}
	return e.allVars
}

// DifferentialEntropyKL estimates the differential entropy h(X) in bits of
// the joint distribution of the given dataset variables with the
// Kozachenko–Leonenko k-NN estimator:
//
//	ĥ = ψ(m) − ψ(k) + log c_D + (D/m) Σ_s log ε_s
//
// where ε_s is the distance from sample s to its k-th nearest neighbour
// (Euclidean), D the dimension and c_D the volume of the D-dimensional
// unit ball. It is the entropy-side companion of the KSG estimator (KSG is
// derived from it) and powers the entropy-evolution diagnostics of
// Secs. 6/7.1: the paper explains rising multi-information as the joint
// entropy of the collective falling faster than the marginal observer
// entropies.
//
// Duplicate samples make ε_s = 0 and log ε_s undefined. The rule: a zero
// ε_s is clamped to the smallest positive k-th-neighbour distance
// observed in the dataset — the finest resolution the data actually
// exhibits — so a single duplicated pair shifts the mean by one
// in-distribution term instead of injecting a ≈ −10³-bit outlier (the
// old 1e-300 floor). If every sample's ε is zero the distribution is
// (empirically) purely atomic and the differential entropy is −Inf.
//
// One Euclidean knn index over the flattened samples answers the
// k-th-neighbour queries.
func (e *Engine) DifferentialEntropyKL(d *Dataset, vars []int, k int) float64 {
	m := d.NumSamples()
	if k < 1 || k >= m {
		panic("infotheory: KL entropy needs 1 <= k < m")
	}
	pts, D := e.flatten(d, vars)
	e.flat.Rebuild(pts, m, D, knn.MaxEuclidean2, nil, knn.Nearest)
	e.eps = growFloats(e.eps, m)
	if workers := e.workerCount(m); workers == 1 {
		e.klChunk(pts, D, k, 0, 0, m)
	} else {
		e.runParallel(workers, m, func(worker, lo, hi int) {
			e.klChunk(pts, D, k, worker, lo, hi)
		})
	}
	return klReduce(e.eps[:m], k, D)
}

// klChunk fills e.eps with the k-th-neighbour distances of samples
// [lo, hi), using the given worker's scratch.
func (e *Engine) klChunk(pts []float64, D, k, worker, lo, hi int) {
	sc := &e.scratch[worker]
	for s := lo; s < hi; s++ {
		nbs := e.flat.KNearest(pts[s*D:(s+1)*D], k, int32(s), sc.neigh)
		sc.neigh = nbs
		e.eps[s] = math.Sqrt(nbs[k-1].Dist)
	}
}

// Entropies evaluates the joint/marginal-sum entropy profile with the
// Kozachenko–Leonenko estimator. It makes the paper's Fig. 4 narrative
// measurable: "in the beginning the sum of the marginal entropies is as
// large as the overall entropy … over time the marginal entropies
// decrease, however the overall entropy decreases even faster".
func (e *Engine) Entropies(d *Dataset, k int) EntropyProfile {
	var p EntropyProfile
	p.Joint = e.DifferentialEntropyKL(d, e.identityVars(d), k)
	for v := 0; v < d.NumVars(); v++ {
		e.oneVar[0] = v
		p.MarginalSum += e.DifferentialEntropyKL(d, e.oneVar[:], k)
	}
	return p
}

// MultiInfoKernel estimates the multi-information of the dataset in bits
// with a Gaussian kernel density estimator: Î = Σ_v ĥ(X_v) − ĥ(X), where
// each differential entropy is the leave-one-out resubstitution estimate
//
//	ĥ(X) = −(1/m) Σ_s log₂ p̂₋ₛ(x_s)
//
// under a product Gaussian kernel with per-dimension Silverman/Scott
// bandwidths h_d = σ_d · m^{−1/(D+4)} (D = dimension of the space the
// density lives in).
//
// This is the kernel baseline of Sec. 5.3: the paper reports it to be
// orders of magnitude slower and higher-variance in high dimension than
// KSG, which BenchmarkEstimatorComparison reproduces. Cost is O(m²·D) —
// every pair contributes to the dense kernel sum, so unlike the k-NN
// estimators no tree applies; the engine recycles the scratch buffers and
// spreads samples across Workers.
func (e *Engine) MultiInfoKernel(d *Dataset) float64 {
	if d.NumVars() < 2 {
		return 0
	}
	var sum float64
	for v := 0; v < d.NumVars(); v++ {
		e.oneVar[0] = v
		sum += e.kernelEntropy(d, e.oneVar[:])
	}
	return sum - e.kernelEntropy(d, e.identityVars(d))
}

// kernelEntropy is the engine evaluation of the leave-one-out KDE
// differential entropy; identical arithmetic to kernelEntropyBrute with
// the flattening, bandwidth and log buffers recycled.
func (e *Engine) kernelEntropy(d *Dataset, vars []int) float64 {
	m := d.NumSamples()
	if m < 2 {
		return 0
	}
	flat, D := e.flatten(d, vars)

	// Scott's rule bandwidth per dimension, floored to avoid degenerate
	// zero-variance dimensions.
	e.h = growFloats(e.h, D)
	e.col = growFloats(e.col, m)
	factor := math.Pow(float64(m), -1/(float64(D)+4))
	for dim := 0; dim < D; dim++ {
		for s := 0; s < m; s++ {
			e.col[s] = flat[s*D+dim]
		}
		sd := mathx.StdDev(e.col)
		if !(sd > 0) || math.IsNaN(sd) {
			sd = 1e-12
		}
		e.h[dim] = sd * factor
	}

	logNorm := 0.0
	for _, hd := range e.h[:D] {
		logNorm -= math.Log(math.Sqrt(2*math.Pi) * hd)
	}

	e.psi = growFloats(e.psi, m)
	if workers := e.workerCount(m); workers == 1 {
		e.kernelChunk(flat, m, D, logNorm, 0, 0, m)
	} else {
		e.runParallel(workers, m, func(worker, lo, hi int) {
			e.kernelChunk(flat, m, D, logNorm, worker, lo, hi)
		})
	}

	var ent mathx.KahanSum
	for _, p := range e.psi[:m] {
		ent.Add(p)
	}
	return mathx.Log2(ent.Sum() / float64(m))
}

// kernelChunk fills e.psi with the per-sample −log p̂₋ₛ(x_s) terms of the
// leave-one-out KDE for samples [lo, hi), using the given worker's
// scratch.
func (e *Engine) kernelChunk(flat []float64, m, D int, logNorm float64, worker, lo, hi int) {
	h := e.h
	sc := &e.scratch[worker]
	if cap(sc.logs) < m-1 {
		sc.logs = make([]float64, 0, m-1)
	}
	for s := lo; s < hi; s++ {
		// p̂₋ₛ(x_s) = 1/(m−1) Σ_{t≠s} Π_d K_h(x_s,d − x_t,d); log space
		// via max-shift for stability.
		logs := sc.logs[:0]
		for t := 0; t < m; t++ {
			if t == s {
				continue
			}
			ex := 0.0
			for dim := 0; dim < D; dim++ {
				diff := (flat[s*D+dim] - flat[t*D+dim]) / h[dim]
				ex -= 0.5 * diff * diff
			}
			logs = append(logs, ex)
		}
		sc.logs = logs
		logP := logSumExp(logs) + logNorm - math.Log(float64(m-1))
		e.psi[s] = -logP
	}
}
