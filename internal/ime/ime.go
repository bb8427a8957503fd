// Package ime implements the Inhibition Method (IMe), the linear-system
// solver the paper profiles against ScaLAPACK: an iterative, exact,
// non-inverting direct method (Ciampolini 1963; Artioli & Filippetti 2001;
// Loreti, Artioli & Ciampolini 2019/2020).
//
// # Reconstruction
//
// The paper gives the initial inhibition table T⁽ⁿ⁾ = [D⁻¹ | R] with
// R[i][j] = a_{j,i}/a_{i,i}, i.e. the right half is the transpose of the
// diagonally-scaled system G = D⁻¹A, and states that levels l = n…1
// iteratively shrink the table, with three communication events per level
// (§2.1): the "last column" t_{*,n+l} is broadcast by its owner, the
// auxiliary vector h is broadcast by the master, and the modified entries
// of the "last row" are sent back to the master.
//
// Transposing the table maps those exactly onto Gauss–Jordan elimination
// on [G | h] with pivots taken in descending order:
//
//   - the table column t_{*,n+l} ↔ the pivot row G[l][·], whose effective
//     length shrinks to l because higher pivots already eliminated it;
//   - the table's last row ↔ the pivot column G[·][l], holding the
//     multipliers m_i that the master needs to update h;
//   - h ↔ the auxiliary quantities; at the end h = x.
//
// The reconstruction therefore produces bit-identical results between the
// sequential and column-wise parallel versions and exercises the paper's
// exact message pattern. Its arithmetic cost is ~n³ + O(n²); the published
// IMe implementation reports 3/2·n³ + O(n²) (it also maintains the left
// half of the table), so the *performance accounting* — the flops charged
// to virtual time via LevelFlops — uses the paper's 3/2·n³ figure. See
// DESIGN.md for the substitution note.
//
// Like the published IMe, the method does not pivot: it divides by the
// diagonal entries, so inputs must be diagonally dominant or otherwise
// strongly non-singular on the diagonal (the paper's generated inputs are).
package ime

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrSingular reports a (near-)zero pivot, which the pivot-free method
// cannot proceed through.
var ErrSingular = errors.New("ime: zero or near-zero diagonal pivot")

// pivotTolerance is the absolute magnitude below which a pivot is treated
// as singular.
const pivotTolerance = 1e-300

// Table is the working state of a sequential IMe solve, exposed so tests
// and the fault-tolerance machinery can inspect intermediate levels.
type Table struct {
	n int
	// g holds G = D⁻¹A row-major; row i is one "column" of the paper's
	// transposed inhibition table.
	g *mat.Dense
	// h is the auxiliary-quantities vector; after Reduce completes, h = x.
	h []float64
	// level is the next pivot to process, counting down from n to 0
	// (1-based pivot l = level).
	level int
}

// NewTable initialises the inhibition table for a system: G = D⁻¹A and
// h = D⁻¹b (the INITIME procedure).
func NewTable(sys *mat.System) (*Table, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := sys.N()
	g := mat.New(n, n)
	h := make([]float64, n)
	for i := 0; i < n; i++ {
		d := sys.A.At(i, i)
		if math.Abs(d) < pivotTolerance {
			return nil, fmt.Errorf("%w: diagonal %d is %g", ErrSingular, i, d)
		}
		src := sys.A.Row(i)
		dst := g.Row(i)
		inv := 1 / d
		for j, v := range src {
			dst[j] = v * inv
		}
		h[i] = sys.B[i] * inv
	}
	return &Table{n: n, g: g, h: h, level: n}, nil
}

// N returns the system order.
func (t *Table) N() int { return t.n }

// Level returns the number of pivots still to process.
func (t *Table) Level() int { return t.level }

// H returns the auxiliary vector (aliased; callers must not mutate).
func (t *Table) H() []float64 { return t.h }

// PivotRow returns the effective (length-l) pivot row of level l plus the
// pre-normalisation pivot value — the payload the parallel version
// broadcasts. It must be called before Step(l) executes the level.
func (t *Table) PivotRow(l int) ([]float64, float64, error) {
	if l < 1 || l > t.n {
		return nil, 0, fmt.Errorf("ime: level %d out of range [1,%d]", l, t.n)
	}
	row := t.g.Row(l - 1)
	p := row[l-1]
	if math.Abs(p) < pivotTolerance {
		return nil, 0, fmt.Errorf("%w: level %d pivot is %g", ErrSingular, l, p)
	}
	out := make([]float64, l)
	inv := 1 / p
	for j := 0; j < l; j++ {
		out[j] = row[j] * inv
	}
	return out, p, nil
}

// Step executes one level of the reduction: normalise the pivot row,
// eliminate the pivot column from every other row, and update h.
func (t *Table) Step() error {
	if t.level == 0 {
		return errors.New("ime: table already fully reduced")
	}
	l := t.level
	pr, p, err := t.PivotRow(l)
	if err != nil {
		return err
	}
	copy(t.g.Row(l - 1)[:l], pr)
	t.h[l-1] /= p
	hl := t.h[l-1]
	for i := 0; i < t.n; i++ {
		if i == l-1 {
			continue
		}
		row := t.g.Row(i)
		m := row[l-1]
		if m != 0 {
			for j := 0; j < l; j++ {
				row[j] -= m * pr[j]
			}
		}
		t.h[i] -= m * hl
	}
	t.level--
	return nil
}

// Reduce runs all remaining levels.
func (t *Table) Reduce() error {
	for t.level > 0 {
		if err := t.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Solution returns x after full reduction.
func (t *Table) Solution() ([]float64, error) {
	if t.level != 0 {
		return nil, fmt.Errorf("ime: %d levels remain", t.level)
	}
	return mat.VecClone(t.h), nil
}

// SolveSequential solves A·x = b with the sequential Inhibition Method.
func SolveSequential(sys *mat.System) ([]float64, error) {
	t, err := NewTable(sys)
	if err != nil {
		return nil, err
	}
	if err := t.Reduce(); err != nil {
		return nil, err
	}
	return t.Solution()
}
