package mat

import (
	"fmt"
	"math/rand"
)

// System is a linear system A·x = b together with (optionally) the exact
// solution used to generate b, for verification.
type System struct {
	A *Dense
	B []float64
	// X is the generating solution, or nil when unknown (e.g. loaded from a
	// file written by an external producer).
	X []float64
}

// N returns the order of the system.
func (s *System) N() int { return s.A.Rows() }

// Validate checks structural consistency of the system.
func (s *System) Validate() error {
	if s.A == nil {
		return fmt.Errorf("mat: system has nil matrix")
	}
	if s.A.Rows() != s.A.Cols() {
		return fmt.Errorf("mat: system matrix is %d×%d, want square", s.A.Rows(), s.A.Cols())
	}
	if len(s.B) != s.A.Rows() {
		return fmt.Errorf("mat: rhs length %d != order %d", len(s.B), s.A.Rows())
	}
	if s.X != nil && len(s.X) != s.A.Rows() {
		return fmt.Errorf("mat: solution length %d != order %d", len(s.X), s.A.Rows())
	}
	return nil
}

// NewDiagonallyDominant returns a deterministic, strictly diagonally
// dominant n×n matrix seeded by seed. Diagonal dominance keeps both IMe
// (which divides by diagonal entries) and unpivoted elimination numerically
// safe, and mirrors the well-conditioned inputs the paper loads from file.
func NewDiagonallyDominant(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		var off float64
		for j := range row {
			if j == i {
				continue
			}
			v := rng.Float64()*2 - 1 // in (-1, 1)
			row[j] = v
			if v < 0 {
				off -= v
			} else {
				off += v
			}
		}
		// Strictly dominant: |a_ii| > Σ|a_ij| with margin.
		row[i] = off + 1 + rng.Float64()
	}
	return m
}

// NewRandomSystem builds a diagonally dominant system of order n with a
// known random solution vector, deterministically from seed.
func NewRandomSystem(n int, seed int64) *System {
	a := NewDiagonallyDominant(n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*10 - 5
	}
	return &System{A: a, B: a.MulVec(x), X: x}
}
