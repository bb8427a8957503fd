// Package mat provides dense matrices and vectors with contiguous storage,
// deterministic generators, file I/O and the norms needed to validate
// linear-system solvers.
//
// The paper stores coefficient matrices contiguously ("matrices allocation
// is tested in a contiguous form") and loads input systems from file so
// repeated measurements see identical data; this package reproduces both
// behaviours.
package mat

import (
	"fmt"

	"repro/internal/kernel"
)

// Dense is a dense row-major matrix with contiguous backing storage.
// The zero value is an empty matrix; use New or NewFromData to build one.
type Dense struct {
	rows, cols int
	// stride is the distance in elements between vertically adjacent
	// elements. For matrices created by New it equals cols; views created
	// by Slice may have a larger stride over shared storage.
	stride int
	data   []float64
}

// New returns a zeroed r×c matrix backed by a single contiguous allocation.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: make([]float64, r*c)}
}

// NewFromData wraps data (row-major, len r*c) without copying.
func NewFromData(r, c int, data []float64) (*Dense, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("mat: negative dimension %d×%d", r, c)
	}
	if len(data) != r*c {
		return nil, fmt.Errorf("mat: data length %d does not match %d×%d", len(data), r, c)
	}
	return &Dense{rows: r, cols: c, stride: c, data: data}, nil
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.stride+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.stride+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns a slice aliasing row i. Mutating the slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds %d×%d", i, m.rows, m.cols))
	}
	return m.data[i*m.stride : i*m.stride+m.cols]
}

// Raw returns the backing slice starting at element (0,0) together with
// the row stride, for strided-kernel consumers (internal/kernel). The
// slice aliases the matrix.
func (m *Dense) Raw() (data []float64, stride int) { return m.data, m.stride }

// Clone returns a deep, contiguous copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// SwapRows exchanges rows i and k in place.
func (m *Dense) SwapRows(i, k int) {
	if i == k {
		return
	}
	ri, rk := m.Row(i), m.Row(k)
	for j := range ri {
		ri[j], rk[j] = rk[j], ri[j]
	}
}

// MulVec returns A·x for x of length Cols, each row's dot accumulated in
// ascending order (kernel.MatVec).
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d != cols %d", len(x), m.cols))
	}
	y := make([]float64, m.rows)
	kernel.MatVec(m.rows, m.cols, m.data, m.stride, x, y)
	return y
}

// String renders small matrices for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	if m.rows > maxShow || m.cols > maxShow {
		return fmt.Sprintf("Dense{%d×%d}", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
