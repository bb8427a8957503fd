package sparse

import "fmt"

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

// MulVecInto computes dst = A·x without allocating; dst must have length
// Rows and x length Cols.
func (a *CSR) MulVecInto(dst, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVecInto shapes dst=%d x=%d for %dx%d matrix", len(dst), len(x), a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += float64(a.Val[k] * x[a.Col[k]])
		}
		dst[i] = s
	}
}

// run is a maximal stretch of consecutive columns within one row.
type run struct{ start, n int32 }

// runMatrix is the run-length form of a CSR: row i is the runs
// runs[rowRun[i]:rowRun[i+1]] in ascending column order, and its values
// follow each other in val in the same order, so no entry carries a
// column index. A banded row is one run; a row with scattered entries
// degenerates to runs of one. It is what the generator emits and what the
// distributed solver multiplies Random blocks with.
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
func (m *runMatrix) mulVecInto(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: mulVecInto shapes dst=%d x=%d for %dx%d matrix", len(dst), len(x), m.rows, m.cols))
	}
	runs, val := m.runs, m.val
	k := 0 // val[k] is the first value of row i
	for i := range dst {
		var s float64
		for _, r := range runs[m.rowRun[i]:m.rowRun[i+1]] {
			if r.n == 1 {
				s += float64(val[k] * x[r.start])
				k++
				continue
			}
			v := val[k:][:r.n]
			xs := x[r.start:][:r.n]
			for j := range v {
				s += float64(v[j] * xs[j])
			}
			k += len(v)
		}
		dst[i] = s
	}
}
