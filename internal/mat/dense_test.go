package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// equalApprox reports whether m and b have the same shape and all elements
// within tol of each other.
func (m *Dense) equalApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		ra, rb := m.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol {
				return false
			}
		}
	}
	return true
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewFromData(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m, err := NewFromData(2, 3, d)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	if _, err := NewFromData(2, 2, d); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(5) },
		func() { m.CopyColInto(make([]float64, 2), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRowAliases(t *testing.T) {
	m := New(2, 2)
	m.Row(0)[1] = 42
	if m.At(0, 1) != 42 {
		t.Fatal("Row does not alias backing storage")
	}
}

func TestCol(t *testing.T) {
	m := New(3, 2)
	for i, v := range []float64{1, 2, 3} {
		m.Set(i, 1, v)
	}
	got := m.CopyColInto(make([]float64, 3), 1)
	for i, want := range []float64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("column 1 [%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDiagonallyDominant(4, 1)
	c := m.Clone()
	c.Set(0, 0, -999)
	if m.At(0, 0) == -999 {
		t.Fatal("Clone shares storage with original")
	}
	if !m.equalApprox(m.Clone(), 0) {
		t.Fatal("Clone not equal to original")
	}
}

func TestSliceView(t *testing.T) {
	m := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	v := m.Slice(1, 3, 1, 4)
	if v.Rows() != 2 || v.Cols() != 3 {
		t.Fatalf("slice shape %d×%d, want 2×3", v.Rows(), v.Cols())
	}
	if v.At(0, 0) != 11 || v.At(1, 2) != 23 {
		t.Fatalf("slice content wrong: %v %v", v.At(0, 0), v.At(1, 2))
	}
	v.Set(0, 0, -1)
	if m.At(1, 1) != -1 {
		t.Fatal("Slice must share storage")
	}
}

func TestSwapRows(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 0, 2)
	m.SwapRows(0, 1)
	if m.At(0, 0) != 2 || m.At(1, 0) != 1 {
		t.Fatal("SwapRows failed")
	}
	m.SwapRows(1, 1) // no-op must not panic
}

func TestMulVec(t *testing.T) {
	m, _ := NewFromData(2, 2, []float64{1, 2, 3, 4})
	y := m.MulVec([]float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", y)
	}
}

func TestMulVecLinearityQuick(t *testing.T) {
	// A(x+y) == Ax + Ay within roundoff.
	f := func(seed int64) bool {
		n := int(abs64(seed)%8) + 2
		m := NewDiagonallyDominant(n, seed)
		sysa := NewRandomSystem(n, seed+1)
		sysb := NewRandomSystem(n, seed+2)
		x, y := sysa.X, sysb.X
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		lhs := m.MulVec(sum)
		ax, ay := m.MulVec(x), m.MulVec(y)
		for i := range lhs {
			if math.Abs(lhs[i]-(ax[i]+ay[i])) > 1e-9*(1+math.Abs(lhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return math.MaxInt64
		}
		return -v
	}
	return v
}

func TestEqualApproxShapes(t *testing.T) {
	if New(2, 3).equalApprox(New(3, 2), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestStringElision(t *testing.T) {
	small := New(2, 2)
	if small.String() == "" {
		t.Fatal("small matrix should render")
	}
	big := New(20, 20)
	if got := big.String(); got != "Dense{20×20}" {
		t.Fatalf("big matrix render = %q", got)
	}
}

func TestCopyColIntoStridedView(t *testing.T) {
	m := New(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	v := m.Slice(1, 4, 2, 5) // 3×3 view, stride 5 ≠ cols 3
	dst := make([]float64, 3)
	got := v.CopyColInto(dst, 1)
	if &got[0] != &dst[0] {
		t.Fatal("CopyColInto must return dst")
	}
	for i, want := range []float64{13, 23, 33} {
		if got[i] != want {
			t.Fatalf("col[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// Slice returns a view of the rectangle [r0,r1)×[c0,c1) sharing storage
// with m; its stride exceeds its column count unless c0 = 0 and c1 = Cols.
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	return &Dense{rows: r1 - r0, cols: c1 - c0, stride: m.stride, data: m.data[r0*m.stride+c0 : (r1-1)*m.stride+c1]}
}

// CopyColInto copies column j into dst (len must equal Rows) and returns
// dst, one strided pointer advance per row.
func (m *Dense) CopyColInto(dst []float64, j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of bounds %d×%d", j, m.rows, m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: CopyColInto length %d != rows %d", len(dst), m.rows))
	}
	idx := j
	for i := range dst {
		dst[i] = m.data[idx]
		idx += m.stride
	}
	return dst
}
