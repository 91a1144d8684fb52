// Package align implements the shape-invariant preprocessing of Sec. 5.2 of
// the paper: factoring the transformation group F = ISO⁺(2) × S*_n
// (translations, rotations, and permutations of same-type particles) out of
// the raw simulation samples, producing the processed samples w^(t) whose
// per-particle observer variables the multi-information is estimated on.
//
// The pipeline is the paper's: express every configuration relative to its
// centroid, align each sample to a common reference with an ICP (iterative
// closest point) algorithm whose correspondences never cross types, then
// reorder particles by type and correspondence. The paper keeps matches
// inside a type with a 3-D lift whose third coordinate encodes the type at
// a scale a magnitude larger than the collective's diameter; scanning each
// type in the plane is the same search. The paper used the Point Cloud
// Library's ICP; this package is a from-scratch equivalent (see DESIGN.md,
// "Substitutions").
package align

import (
	"math"

	"repro/internal/vec"
)

// Rigid is a direct planar isometry q = R(θ)·p + T, an element of ISO⁺(2).
type Rigid struct {
	Theta float64  // rotation angle, counter-clockwise
	T     vec.Vec2 // translation applied after the rotation
}

// Apply maps a single point.
func (r Rigid) Apply(p vec.Vec2) vec.Vec2 { return p.Rotate(r.Theta).Add(r.T) }

// ApplyAll maps all points, returning a new slice.
func (r Rigid) ApplyAll(ps []vec.Vec2) []vec.Vec2 {
	out := make([]vec.Vec2, len(ps))
	for i, p := range ps {
		out[i] = r.Apply(p)
	}
	return out
}

// Compose returns the isometry equivalent to applying r first, then s.
func (r Rigid) Compose(s Rigid) Rigid {
	return Rigid{
		Theta: r.Theta + s.Theta,
		T:     r.T.Rotate(s.Theta).Add(s.T),
	}
}

// Inverse returns the isometry undoing r.
func (r Rigid) Inverse() Rigid {
	return Rigid{Theta: -r.Theta, T: r.T.Rotate(-r.Theta).Neg()}
}

// Procrustes2D returns the direct isometry (rotation + translation, no
// reflection, no scaling) that best maps src onto dst in the least-squares
// sense, given the point-to-point pairing src[i] ↔ dst[i]:
//
//	argmin_{θ,T} Σ_i ‖R(θ)·src_i + T − dst_i‖².
//
// The 2-D Kabsch solution is closed-form: with both clouds centred on the
// centroids of the paired points, θ = atan2(Σ src_i × dst_i, Σ src_i · dst_i)
// and T re-attaches the centroids. Degenerate inputs (fewer than one pair,
// or all points coincident) return the pure translation between centroids.
func Procrustes2D(src, dst []vec.Vec2) Rigid {
	if len(src) != len(dst) {
		panic("align: Procrustes2D needs equal-length paired slices")
	}
	if len(src) == 0 {
		return Rigid{}
	}
	cs := vec.Centroid(src)
	cd := vec.Centroid(dst)
	var sumDot, sumCross float64
	for i := range src {
		p := src[i].Sub(cs)
		q := dst[i].Sub(cd)
		sumDot += p.Dot(q)
		sumCross += p.Cross(q)
	}
	theta := 0.0
	if sumDot != 0 || sumCross != 0 {
		theta = math.Atan2(sumCross, sumDot)
	}
	// T such that R·cs + T = cd.
	return Rigid{Theta: theta, T: cd.Sub(cs.Rotate(theta))}
}

// RMSD returns the root-mean-square deviation between paired point sets.
func RMSD(a, b []vec.Vec2) float64 {
	if len(a) != len(b) {
		panic("align: RMSD needs equal-length paired slices")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i := range a {
		s += a[i].Dist2(b[i])
	}
	return math.Sqrt(s / float64(len(a)))
}
