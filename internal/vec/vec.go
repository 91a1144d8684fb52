// Package vec provides the planar vector algebra used by the particle
// simulator and the shape-alignment pipeline: particle positions,
// velocities and forces all live in the Euclidean plane as Vec2.
package vec

import "math"

// Vec2 is a point or displacement in the Euclidean plane.
type Vec2 struct {
	X, Y float64
}

// Add returns v + u.
func (v Vec2) Add(u Vec2) Vec2 { return Vec2{v.X + u.X, v.Y + u.Y} }

// Sub returns v - u.
func (v Vec2) Sub(u Vec2) Vec2 { return Vec2{v.X - u.X, v.Y - u.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Neg returns -v.
func (v Vec2) Neg() Vec2 { return Vec2{-v.X, -v.Y} }

// Dot returns the inner product ⟨v, u⟩.
func (v Vec2) Dot(u Vec2) float64 { return v.X*u.X + v.Y*u.Y }

// Cross returns the scalar cross product v × u = v.X·u.Y − v.Y·u.X.
// It is the signed area of the parallelogram spanned by v and u and drives
// the closed-form 2-D Procrustes rotation.
func (v Vec2) Cross(u Vec2) float64 { return v.X*u.Y - v.Y*u.X }

// Norm returns the Euclidean length ‖v‖₂.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Norm2 returns the squared Euclidean length ‖v‖₂².
func (v Vec2) Norm2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance ‖v−u‖₂.
func (v Vec2) Dist(u Vec2) float64 { return v.Sub(u).Norm() }

// Dist2 returns the squared Euclidean distance ‖v−u‖₂².
func (v Vec2) Dist2(u Vec2) float64 { return v.Sub(u).Norm2() }

// Normalize returns v/‖v‖. The zero vector is returned unchanged.
func (v Vec2) Normalize() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Rotate returns v rotated counter-clockwise by theta radians about the
// origin.
func (v Vec2) Rotate(theta float64) Vec2 { return Rotation(theta).Apply(v) }

// Rot is a rotation about the origin, held as the sine and cosine of its
// angle, so rotating many points by one angle computes them once.
type Rot struct{ sin, cos float64 }

// Rotation returns the counter-clockwise rotation by theta radians.
func Rotation(theta float64) Rot {
	s, c := math.Sincos(theta)
	return Rot{s, c}
}

// Apply returns v rotated by r; it equals v.Rotate(θ) bit for bit.
func (r Rot) Apply(v Vec2) Vec2 {
	return Vec2{r.cos*v.X - r.sin*v.Y, r.sin*v.X + r.cos*v.Y}
}

// Lerp returns the linear interpolation (1−t)·v + t·u.
func (v Vec2) Lerp(u Vec2, t float64) Vec2 {
	return Vec2{v.X + t*(u.X-v.X), v.Y + t*(u.Y-v.Y)}
}

// Angle returns the angle of v in radians in (−π, π], measured from the
// positive x-axis.
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// IsFinite reports whether both components are finite (neither NaN nor ±Inf).
func (v Vec2) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// Centroid returns the arithmetic mean of the points. It returns the zero
// vector for an empty slice.
func Centroid(points []Vec2) Vec2 {
	if len(points) == 0 {
		return Vec2{}
	}
	var sx, sy float64
	for _, p := range points {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(points))
	return Vec2{sx / n, sy / n}
}

// Center subtracts the centroid from every point in place and returns the
// centroid that was removed.
func Center(points []Vec2) Vec2 {
	c := Centroid(points)
	for i := range points {
		points[i] = points[i].Sub(c)
	}
	return c
}

// Radius returns the maximum distance of any point from the origin. It
// tracks the expansion of a collective.
func Radius(points []Vec2) float64 {
	var r2 float64
	for _, p := range points {
		if n2 := p.Norm2(); n2 > r2 {
			r2 = n2
		}
	}
	return math.Sqrt(r2)
}

// BoundingBox returns the axis-aligned bounding box (min, max) of the points.
// It returns zero vectors for an empty slice.
func BoundingBox(points []Vec2) (min, max Vec2) {
	if len(points) == 0 {
		return Vec2{}, Vec2{}
	}
	min, max = points[0], points[0]
	for _, p := range points[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return min, max
}
