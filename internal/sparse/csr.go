package sparse

import (
	"fmt"

	"repro/internal/mat"
)

// CSR is a compressed-sparse-row matrix. A full matrix has Rows == Cols;
// a distributed row block (Spec.RowBlock) stores only its rows, with
// column indices still global, which is exactly the form the distributed
// SpMV wants before its halo remap.
type CSR struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries; row i's entries are
	// Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], with
	// column indices strictly increasing within a row.
	RowPtr []int
	Col    []int
	Val    []float64
}

// NNZ returns the stored entry count.
func (a *CSR) NNZ() int { return len(a.Val) }

// Validate checks the structural invariants.
func (a *CSR) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative shape %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr has %d entries, want %d", len(a.RowPtr), a.Rows+1)
	}
	if len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: %d columns vs %d values", len(a.Col), len(a.Val))
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Val) {
		return fmt.Errorf("sparse: RowPtr bounds [%d,%d], want [0,%d]", a.RowPtr[0], a.RowPtr[a.Rows], len(a.Val))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] < 0 || a.Col[k] >= a.Cols {
				return fmt.Errorf("sparse: row %d column %d out of range [0,%d)", i, a.Col[k], a.Cols)
			}
			if k > a.RowPtr[i] && a.Col[k] <= a.Col[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly increasing", i)
			}
		}
	}
	return nil
}

// MulVec returns A·x for a vector of length Cols.
func (a *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, a.Rows)
	a.MulVecInto(y, x)
	return y
}

// MulVecInto computes dst = A·x without allocating; dst must have length
// Rows and x length Cols.
func (a *CSR) MulVecInto(dst, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVecInto shapes dst=%d x=%d for %dx%d matrix", len(dst), len(x), a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		dst[i] = s
	}
}

// Dense materialises the matrix — the seam to the dense reference solves
// the numerics tests cross-check against.
func (a *CSR) Dense() *mat.Dense {
	d := mat.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.Set(i, a.Col[k], a.Val[k])
		}
	}
	return d
}

// run is a maximal stretch of consecutive columns within one row.
type run struct{ start, n int32 }

// runMatrix is the run-length form of a CSR: row i is the runs
// runs[rowRun[i]:rowRun[i+1]] in ascending column order, and its values
// follow each other in val in the same order, so no entry carries a
// column index. A banded row is one run; a row with scattered entries
// degenerates to runs of one. It is what the generator emits and what the
// distributed solver multiplies with.
type runMatrix struct {
	rows, cols int
	rowRun     []int32
	runs       []run
	val        []float64
}

// csr expands the runs into per-entry column indices, sharing val.
func (m *runMatrix) csr() *CSR {
	a := &CSR{Rows: m.rows, Cols: m.cols, RowPtr: make([]int, m.rows+1), Col: make([]int, 0, len(m.val)), Val: m.val}
	for i := 0; i < m.rows; i++ {
		for _, r := range m.runs[m.rowRun[i]:m.rowRun[i+1]] {
			for j := r.start; j < r.start+r.n; j++ {
				a.Col = append(a.Col, int(j))
			}
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	return a
}

// mulVecInto computes dst = A·x like CSR.MulVecInto, bit for bit: every
// row is summed from zero in ascending column order into one accumulator.
// Two neighbouring rows that are each a single run of the same length are
// summed side by side, which leaves each row's order alone and keeps two
// floating-point add chains in flight instead of one.
func (m *runMatrix) mulVecInto(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: mulVecInto shapes dst=%d x=%d for %dx%d matrix", len(dst), len(x), m.rows, m.cols))
	}
	runs, val := m.runs, m.val
	k := 0 // val[k] is the first value of row i
	for i := 0; i < m.rows; {
		r0, r1 := m.rowRun[i], m.rowRun[i+1]
		if r1-r0 == 1 && i+1 < m.rows && m.rowRun[i+2]-r1 == 1 && runs[r0].n == runs[r1].n {
			a, b := runs[r0], runs[r1]
			n := int(a.n)
			va, vb := val[k:][:n], val[k+n:][:n]
			xa, xb := x[a.start:][:n], x[b.start:][:n]
			var s0, s1 float64
			for j := range va {
				s0 += va[j] * xa[j]
				s1 += vb[j] * xb[j]
			}
			dst[i], dst[i+1] = s0, s1
			k += 2 * n
			i += 2
			continue
		}
		var s float64
		for ; r0 < r1; r0++ {
			r := runs[r0]
			if r.n == 1 {
				s += val[k] * x[r.start]
				k++
				continue
			}
			v := val[k:][:r.n]
			xs := x[r.start:][:r.n]
			for j := range v {
				s += v[j] * xs[j]
			}
			k += len(v)
		}
		dst[i] = s
		i++
	}
}
