// Package forces implements the particle interaction laws of the paper:
// the two force-scaling functions F¹ (Eq. 7) and F² (Eq. 8), the symmetric
// per-type-pair parameter matrices (k_αβ, r_αβ, σ_αβ, τ_αβ) that define
// them, and the random interaction generators used by the sweep experiments
// of Figs. 8–10.
//
// A force-scaling function F_αβ(x) maps the distance x between a particle
// of type α and one of type β to a scalar; the equation of motion (Eq. 6)
// applies the velocity contribution −F_αβ(‖Δz‖)·Δz. Positive F therefore
// means attraction and negative F repulsion. The paper only considers
// symmetric parameter matrices (non-symmetric ones lead to unstable or
// cycling dynamics, Sec. 4.1), and Matrix enforces that symmetry
// structurally.
package forces

import (
	"errors"
	"fmt"

	"repro/internal/rngx"
)

// Matrix is a symmetric l×l matrix of per-type-pair parameters. It stores
// the full square, and Set writes (a,b) and (b,a) together, so At(a,b)
// and At(b,a) always agree by construction, which realises the paper's
// restriction to symmetric interactions. Each type's parameters are then
// one contiguous row, which the force-law evaluator reads (Law).
type Matrix struct {
	l int
	v []float64 // full square, row-major: (a,b) at a*l + b
}

// NewMatrix returns the zero symmetric l×l matrix. l must be positive.
func NewMatrix(l int) Matrix {
	if l <= 0 {
		panic("forces: matrix size must be positive")
	}
	return Matrix{l: l, v: make([]float64, l*l)}
}

// ConstantMatrix returns the symmetric l×l matrix with every entry c.
func ConstantMatrix(l int, c float64) Matrix {
	m := NewMatrix(l)
	for i := range m.v {
		m.v[i] = c
	}
	return m
}

// MatrixFromRows builds a Matrix from a full row representation, verifying
// squareness and symmetry. It is the entry point for the literature
// parameter sets (e.g. the r_αβ matrix of Fig. 4).
func MatrixFromRows(rows [][]float64) (Matrix, error) {
	l := len(rows)
	if l == 0 {
		return Matrix{}, errors.New("forces: empty matrix")
	}
	m := NewMatrix(l)
	for a, row := range rows {
		if len(row) != l {
			return Matrix{}, fmt.Errorf("forces: row %d has %d entries, want %d", a, len(row), l)
		}
		for b, x := range row {
			if b < a {
				if rows[b][a] != x {
					return Matrix{}, fmt.Errorf("forces: matrix not symmetric at (%d,%d): %g vs %g", a, b, x, rows[b][a])
				}
				continue
			}
			m.Set(a, b, x)
		}
	}
	return m, nil
}

// MustMatrix is MatrixFromRows that panics on error; intended for package
// literals in experiment definitions and tests.
func MustMatrix(rows [][]float64) Matrix {
	m, err := MatrixFromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// row returns row a, which panics unless 0 ≤ a < l.
func (m Matrix) row(a int) []float64 { return m.v[a*m.l : (a+1)*m.l : (a+1)*m.l] }

// At returns the (a,b) entry; At(a,b) == At(b,a).
func (m Matrix) At(a, b int) float64 { return m.row(a)[b] }

// Set assigns the (a,b) and the (b,a) entry.
func (m *Matrix) Set(a, b int, x float64) {
	m.row(a)[b] = x
	m.row(b)[a] = x
}

// Len returns the number of types l.
func (m Matrix) Len() int { return m.l }

// Rows expands the matrix into a full row representation (for printing and
// serialisation).
func (m Matrix) Rows() [][]float64 {
	rows := make([][]float64, m.l)
	for a := range rows {
		rows[a] = make([]float64, m.l)
		for b := range rows[a] {
			rows[a][b] = m.At(a, b)
		}
	}
	return rows
}

// RandomMatrix returns a symmetric l×l matrix with entries drawn uniformly
// from [lo, hi). This is the generator behind the paper's "randomly
// generated type matrices" (Figs. 8–10).
func RandomMatrix(l int, lo, hi float64, rng rngx.Source) Matrix {
	m := NewMatrix(l)
	for a := 0; a < l; a++ {
		for b := a; b < l; b++ {
			m.Set(a, b, rng.UniformIn(lo, hi))
		}
	}
	return m
}
