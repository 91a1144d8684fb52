// Package infodynamics implements the time-directed information measures
// the paper names as future work (Sec. 7.3, citing Lizier et al.):
// transfer entropy between particles and active information storage of a
// particle, estimated with the Frenzel–Pompe k-NN conditional
// mutual-information estimator (the conditional sibling of the KSG
// estimator used for multi-information).
//
// These measures operate on *trajectories*, so they require the raw
// simulation output in which particle identity persists over time; the
// permutation-reduced representation of Sec. 5.2 deliberately destroys
// that correspondence (Sec. 5.2: "the correspondence between particles of
// the same sample, but different time steps is lost"). Samples are pooled
// over ensemble runs and over time, which assumes approximate
// stationarity of the increments over the pooled window — use windows, or
// accept the average (the paper itself reports its first attempts at this
// measurement as "still inconclusive"; this package provides the tooling
// to continue that line).
package infodynamics

import (
	"fmt"

	"repro/internal/infotheory"
	"repro/internal/knn"
	"repro/internal/mathx"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/vec"
)

// ConditionalMutualInfo estimates I(X;Y|Z) in bits from pooled samples
// with the Frenzel–Pompe k-NN estimator:
//
//	Î = ψ(k) + ⟨ψ(n_z+1) − ψ(n_xz+1) − ψ(n_yz+1)⟩
//
// where the counts are taken strictly inside the max-norm distance to the
// k-th neighbour in the full joint space. xs, ys, zs must have equal
// length ≥ k+2; each sample is a non-empty vector whose dimension is
// consistent within one role (dimensions may differ between roles).
//
// The k-th-neighbour searches and the three subspace counts run on the
// shared tree engine (package knn) under the Chebyshev metric: one joint
// tree over the flattened (x,y,z) rows and one range-count tree each for
// the (z), (x,z) and (y,z) subspaces — the same four-structure layout
// JIDT-style implementations use — replacing the former private O(m²)
// sort-based sweep, with bit-identical results.
func ConditionalMutualInfo(xs, ys, zs [][]float64, k int) (float64, error) {
	w, err := buildCMISpace(xs, ys, zs, k)
	if err != nil {
		return 0, err
	}
	var acc mathx.KahanSum
	neigh := make([]knn.Neighbor, 0, k)
	for i := 0; i < w.m; i++ {
		var term float64
		term, neigh = w.term(i, k, neigh)
		acc.Add(term)
	}
	nats := mathx.Digamma(float64(k)) + acc.Sum()/float64(w.m)
	return mathx.Log2(nats), nil
}

// ConditionalMutualInfoApprox estimates I(X;Y|Z) on the approximate
// tier: the Frenzel–Pompe sample average evaluated at opts.Subsample
// drawn evaluation points, with neighbour searches and subspace counts
// still exact over all m samples — the conditional sibling of
// infotheory's MultiInfoKSGApprox, with the same deterministic draw
// (rngx.NewStream(Seed, Sequence)) and the same reduction,
// infotheory.SubsampleEstimate: the finite-population-corrected standard
// error and the 95% interval. Results depend only on the inputs and
// options, never on scheduling.
func ConditionalMutualInfoApprox(xs, ys, zs [][]float64, k int, opts infotheory.ApproxOptions) (infotheory.ApproxEstimate, error) {
	w, err := buildCMISpace(xs, ys, zs, k)
	if err != nil {
		return infotheory.ApproxEstimate{}, err
	}
	r := opts.Subsample
	if r < 1 || r > w.m {
		return infotheory.ApproxEstimate{}, fmt.Errorf("infodynamics: approximate CMI needs 1 <= Subsample <= %d, have %d", w.m, r)
	}
	stream := rngx.NewStream(opts.Seed, opts.Sequence)
	drawn := stream.SampleInto(make([]int32, w.m), w.m, r)
	terms := make([]float64, r)
	neigh := make([]knn.Neighbor, 0, k)
	for pos, i := range drawn {
		terms[pos], neigh = w.term(int(i), k, neigh)
	}
	return infotheory.SubsampleEstimate(mathx.Digamma(float64(k)), terms, w.m), nil
}

// cmiSpace is the validated, tree-indexed workspace shared by the exact
// and approximate CMI paths: the flattened joint and subspace rows plus
// their four Chebyshev trees.
type cmiSpace struct {
	m, dx, dy, dz, dim               int
	joint, zPts, xzPts, yzPts        []float64
	jointTree, zTree, xzTree, yzTree knn.Tree
}

// buildCMISpace validates the pooled samples and builds the four-tree
// workspace.
func buildCMISpace(xs, ys, zs [][]float64, k int) (*cmiSpace, error) {
	m := len(xs)
	if len(ys) != m || len(zs) != m {
		return nil, fmt.Errorf("infodynamics: sample counts differ: %d/%d/%d", len(xs), len(ys), len(zs))
	}
	if k < 1 || m < k+2 {
		return nil, fmt.Errorf("infodynamics: need at least k+2 = %d samples, have %d", k+2, m)
	}
	dx, dy, dz := len(xs[0]), len(ys[0]), len(zs[0])
	if dx == 0 || dy == 0 || dz == 0 {
		return nil, fmt.Errorf("infodynamics: empty sample vectors (dims %d/%d/%d)", dx, dy, dz)
	}
	for i := 0; i < m; i++ {
		if len(xs[i]) != dx || len(ys[i]) != dy || len(zs[i]) != dz {
			return nil, fmt.Errorf("infodynamics: sample %d has dims %d/%d/%d, want %d/%d/%d",
				i, len(xs[i]), len(ys[i]), len(zs[i]), dx, dy, dz)
		}
	}

	// Flatten the joint [x|y|z] rows and the three count subspaces. Under
	// the max-norm, the joint metric of the former private sweep (max of
	// the per-role max-norms) is exactly the Chebyshev distance on the
	// concatenated row, and a strict (x,z)-count is a strict Chebyshev
	// count on the [x|z] rows.
	w := &cmiSpace{m: m, dx: dx, dy: dy, dz: dz, dim: dx + dy + dz}
	w.joint = make([]float64, m*w.dim)
	w.zPts = make([]float64, m*dz)
	w.xzPts = make([]float64, m*(dx+dz))
	w.yzPts = make([]float64, m*(dy+dz))
	for i := 0; i < m; i++ {
		row := w.joint[i*w.dim : (i+1)*w.dim]
		copy(row, xs[i])
		copy(row[dx:], ys[i])
		copy(row[dx+dy:], zs[i])
		copy(w.zPts[i*dz:], zs[i])
		xz := w.xzPts[i*(dx+dz) : (i+1)*(dx+dz)]
		copy(xz, xs[i])
		copy(xz[dx:], zs[i])
		yz := w.yzPts[i*(dy+dz) : (i+1)*(dy+dz)]
		copy(yz, ys[i])
		copy(yz[dy:], zs[i])
	}
	w.jointTree.Rebuild(w.joint, m, w.dim, knn.Chebyshev, nil, knn.Nearest)
	w.zTree.Rebuild(w.zPts, m, dz, knn.Chebyshev, nil, knn.Count)
	w.xzTree.Rebuild(w.xzPts, m, dx+dz, knn.Chebyshev, nil, knn.Count)
	w.yzTree.Rebuild(w.yzPts, m, dy+dz, knn.Chebyshev, nil, knn.Count)
	return w, nil
}

// term evaluates sample i's ψ-term ψ(n_z+1) − ψ(n_xz+1) − ψ(n_yz+1),
// threading the caller's neighbour scratch.
func (w *cmiSpace) term(i, k int, neigh []knn.Neighbor) (float64, []knn.Neighbor) {
	neigh = w.jointTree.KNearest(w.joint[i*w.dim:(i+1)*w.dim], k, int32(i), neigh)
	eps := neigh[k-1].Dist
	nZ := w.zTree.CountWithin(w.zPts[i*w.dz:(i+1)*w.dz], eps, false, int32(i))
	nXZ := w.xzTree.CountWithin(w.xzPts[i*(w.dx+w.dz):(i+1)*(w.dx+w.dz)], eps, false, int32(i))
	nYZ := w.yzTree.CountWithin(w.yzPts[i*(w.dy+w.dz):(i+1)*(w.dy+w.dz)], eps, false, int32(i))
	return mathx.Digamma(float64(nZ+1)) -
		mathx.Digamma(float64(nXZ+1)) -
		mathx.Digamma(float64(nYZ+1)), neigh
}

// Trajectory is one particle's positions over the recorded steps of one
// sample.
type Trajectory []vec.Vec2

// TransferEntropy estimates the transfer entropy TE_{Y→X} =
// I(X_{t+1}; Y_t | X_t) in bits, pooling the (future, source, past)
// triples over all provided sample pairs and all consecutive recorded
// steps. xs[s] and ys[s] must come from the same run s and have equal
// length ≥ 2.
func TransferEntropy(xs, ys []Trajectory, k int) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("infodynamics: %d target trajectories, %d source", len(xs), len(ys))
	}
	var fut, src, past [][]float64
	for s := range xs {
		if len(xs[s]) != len(ys[s]) {
			return 0, fmt.Errorf("infodynamics: sample %d trajectory lengths differ", s)
		}
		for t := 0; t+1 < len(xs[s]); t++ {
			fut = append(fut, []float64{xs[s][t+1].X, xs[s][t+1].Y})
			src = append(src, []float64{ys[s][t].X, ys[s][t].Y})
			past = append(past, []float64{xs[s][t].X, xs[s][t].Y})
		}
	}
	if len(fut) == 0 {
		return 0, fmt.Errorf("infodynamics: no transitions to pool")
	}
	return ConditionalMutualInfo(fut, src, past, k)
}

// ActiveStorage estimates the active information storage
// A_X = I(X_{t+1}; X_t) in bits (history length 1), pooling over samples
// and steps, with the KSG-style estimator obtained by conditioning on a
// constant (degenerate) variable.
func ActiveStorage(xs []Trajectory, k int) (float64, error) {
	var fut, past [][]float64
	for s := range xs {
		for t := 0; t+1 < len(xs[s]); t++ {
			fut = append(fut, []float64{xs[s][t+1].X, xs[s][t+1].Y})
			past = append(past, []float64{xs[s][t].X, xs[s][t].Y})
		}
	}
	if len(fut) == 0 {
		return 0, fmt.Errorf("infodynamics: no transitions to pool")
	}
	// I(X;Y) = I(X;Y|∅): condition on a constant scalar.
	zs := make([][]float64, len(fut))
	for i := range zs {
		zs[i] = []float64{0}
	}
	return ConditionalMutualInfo(fut, past, zs, k)
}

// ParticleTrajectories extracts particle i's trajectory from every sample
// of an ensemble, optionally re-expressed relative to the collective
// centroid of its frame (removing the shared drift so the measures see
// relative motion, the organising signal).
func ParticleTrajectories(ens *sim.Ensemble, particle int, centred bool) []Trajectory {
	out := make([]Trajectory, len(ens.Trajs))
	for s, traj := range ens.Trajs {
		tr := make(Trajectory, len(traj.Frames))
		for t, frame := range traj.Frames {
			p := frame[particle]
			if centred {
				p = p.Sub(vec.Centroid(frame))
			}
			tr[t] = p
		}
		out[s] = tr
	}
	return out
}

// PairTransfer reports the transfer entropy in both directions between two
// particles of an ensemble.
type PairTransfer struct {
	From, To     int
	TE           float64 // TE_{From→To}
	TEReverse    float64 // TE_{To→From}
	NetDirection int     // +1 if From drives To, −1 if the reverse, 0 if balanced
}

// MeasurePairTransfer computes bidirectional transfer entropy between two
// particles over the whole ensemble (centred coordinates).
func MeasurePairTransfer(ens *sim.Ensemble, a, b, k int) (PairTransfer, error) {
	ta := ParticleTrajectories(ens, a, true)
	tb := ParticleTrajectories(ens, b, true)
	ab, err := TransferEntropy(tb, ta, k) // a → b: target b, source a
	if err != nil {
		return PairTransfer{}, err
	}
	ba, err := TransferEntropy(ta, tb, k)
	if err != nil {
		return PairTransfer{}, err
	}
	pt := PairTransfer{From: a, To: b, TE: ab, TEReverse: ba}
	switch {
	case ab > ba+1e-9:
		pt.NetDirection = 1
	case ba > ab+1e-9:
		pt.NetDirection = -1
	}
	return pt, nil
}
