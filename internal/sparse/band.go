package sparse

import (
	"fmt"
	"math"

	"repro/internal/kernel"
)

// bandMatrix is a Banded row block [lo,hi) stored by symmetry, half the
// values of its rows. It keeps the main diagonal of its own rows, and the
// upper diagonals A[k][k+d], d = 1..band, of the rows k in [e0,hi), where
// e0 = max(lo−band, 0): its own rows' upper entries, and those of the
// band rows above the block, which are the block's lower entries
// (A[i][i−d] = A[i−d][i]). Storage is diagonal-major: A[k][k+d] is
// up[(d−1)·s + k−e0] with stride s = hi−e0. Slots that name no entry of
// the block's rows (columns past n−1, or below lo) stay zero and are
// never read.
//
// The block's SpMV input is the extended vector over the columns its rows
// touch, [e0, min(hi+band, n)): x[j−e0] is column j. Column i−d of row i
// and the stored entry A[i−d][i] then share the index i−d−e0, so each
// lower diagonal is an elementwise product of two contiguous stretches.
type bandMatrix struct {
	n, band    int
	lo, hi, e0 int
	diag, up   []float64
}

// bandBlock generates rows [lo,hi) of a Banded matrix in band form: the
// same entries as rowRuns, each upper pair hashed once.
func (s Spec) bandBlock(lo, hi int) (*bandMatrix, error) {
	if s.Kind != Banded {
		return nil, fmt.Errorf("sparse: band form of a %v matrix", s.Kind)
	}
	g, err := s.newRowGen(lo, hi) // its tables start at e0
	if err != nil {
		return nil, err
	}
	m := &bandMatrix{n: s.N, band: s.Band, lo: lo, hi: hi, e0: g.base, diag: make([]float64, hi-lo)}
	stride := hi - m.e0
	m.up = make([]float64, s.Band*stride)
	for d := 1; d <= s.Band; d++ {
		// Row k's entry on diagonal d is read when it belongs to a block
		// row: k ≥ lo (upper) or k+d ≥ lo (lower), k < hi, k+d < n.
		k0, k1 := max(lo-d, m.e0), min(hi, s.N-d)
		u := m.up[(d-1)*stride:]
		for k := k0; k < k1; k++ {
			u[k-m.e0] = g.offdiag(k, uint64(k+d)<<1)
		}
	}
	// The diagonal is the row's absolute off-diagonal sum plus the shift,
	// summed in ascending column order like appendRow's.
	m.eachDiagonal(func(off, r0 int, v []float64, _ int) {
		if off == 0 {
			return
		}
		sum := m.diag[r0:][:len(v)]
		for k, a := range v {
			sum[k] += math.Abs(a)
		}
	})
	for r := range m.diag {
		m.diag[r] += g.shift
	}
	return m, nil
}

// cols is the length of the block's extended SpMV input.
func (m *bandMatrix) cols() int { return min(m.hi+m.band, m.n) - m.e0 }

// eachDiagonal calls f once per diagonal of the block, in ascending
// column order: off = −band..−1 below the main diagonal, 0, then 1..band
// above it. The diagonal has entries v in rows lo+r0 … lo+r0+len(v)−1, and
// the entry of row lo+r0+k sits in column e0+x0+k.
func (m *bandMatrix) eachDiagonal(f func(off, r0 int, v []float64, x0 int)) {
	stride := m.hi - m.e0
	for d := m.band; d >= 1; d-- {
		if i0 := max(m.lo, d); i0 < m.hi {
			k0, k1 := i0-d-m.e0, m.hi-d-m.e0
			f(-d, i0-m.lo, m.up[(d-1)*stride+k0:(d-1)*stride+k1], k0)
		}
	}
	f(0, 0, m.diag, m.lo-m.e0)
	for d := 1; d <= m.band; d++ {
		if i1 := min(m.hi, m.n-d); i1 > m.lo {
			k0, k1 := m.lo-m.e0, i1-m.e0
			f(d, 0, m.up[(d-1)*stride+k0:(d-1)*stride+k1], k0+d)
		}
	}
}

// mulVecInto computes dst = A·x over the extended vector x (see
// bandMatrix), bit for bit what CSR.MulVecInto computes on the same rows:
// dst starts at +0 and takes one diagonal at a time in ascending column
// order, so every row is still summed from +0 in ascending column order,
// one rounded product and one add per entry. Rows are independent, so
// there is no add-latency chain, and a clipped edge row simply drops out
// of the diagonals it has no entry on.
func (m *bandMatrix) mulVecInto(dst, x []float64) {
	if len(dst) != m.hi-m.lo || len(x) != m.cols() {
		panic(fmt.Sprintf("sparse: band mulVecInto shapes dst=%d x=%d for rows [%d,%d) over %d columns", len(dst), len(x), m.lo, m.hi, m.cols()))
	}
	clear(dst)
	m.eachDiagonal(func(_, r0 int, v []float64, x0 int) {
		kernel.MulAdd(dst[r0:], v, x[x0:])
	})
}
