package scalapack

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// maxAbsDiff is the largest element-wise difference of two equal-shape
// matrices.
func maxAbsDiff(a, b *mat.Dense) float64 {
	var mx float64
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			mx = math.Max(mx, math.Abs(ra[j]-rb[j]))
		}
	}
	return mx
}

func TestDgesvKnownSystem(t *testing.T) {
	a, _ := mat.NewFromData(3, 3, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	})
	sys := &mat.System{A: a, B: []float64{8, -11, -3}}
	x, err := Dgesv(sys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestDgesvNeedsPivoting(t *testing.T) {
	// Zero leading diagonal forces a swap; unpivoted elimination dies here.
	a, _ := mat.NewFromData(2, 2, []float64{0, 1, 1, 0})
	sys := &mat.System{A: a, B: []float64{3, 7}}
	x, err := Dgesv(sys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestDgesvSingular(t *testing.T) {
	a, _ := mat.NewFromData(2, 2, []float64{1, 2, 2, 4})
	sys := &mat.System{A: a, B: []float64{1, 2}}
	if _, err := Dgesv(sys); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestDgesvLeavesInputsIntact(t *testing.T) {
	sys := mat.NewRandomSystem(10, 3)
	aCopy := sys.A.Clone()
	bCopy := mat.VecClone(sys.B)
	if _, err := Dgesv(sys); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(sys.A, aCopy) != 0 {
		t.Fatal("Dgesv mutated A")
	}
	for i := range bCopy {
		if sys.B[i] != bCopy[i] {
			t.Fatal("Dgesv mutated b")
		}
	}
}

func TestDgetrfReconstruction(t *testing.T) {
	// P·A = L·U must hold: rebuild and compare.
	sys := mat.NewRandomSystem(12, 9)
	lu := sys.A.Clone()
	ipiv, err := Dgetrf(lu)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()
	l, u := mat.New(n, n), mat.New(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, lu.At(i, j))
			} else {
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	pa := sys.A.Clone()
	for k := 0; k < n; k++ {
		pa.SwapRows(k, ipiv[k])
	}
	lu2 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += l.At(i, k) * u.At(k, j)
			}
			lu2.Set(i, j, s)
		}
	}
	if maxAbsDiff(lu2, pa) > 1e-10 {
		t.Fatal("L·U != P·A")
	}
}

func TestDgesvRandomQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%50) + 1
		if n < 1 {
			n = -n + 2
		}
		sys := mat.NewRandomSystem(n, seed)
		x, err := Dgesv(sys)
		if err != nil {
			return false
		}
		return mat.RelativeResidual(sys.A, x, sys.B) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDgesvAgreesWithGeneratingSolution(t *testing.T) {
	sys := mat.NewRandomSystem(40, 123)
	x, err := Dgesv(sys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-sys.X[i]) > 1e-9*(1+math.Abs(sys.X[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], sys.X[i])
		}
	}
}

func TestDgetrsValidation(t *testing.T) {
	lu := mat.New(3, 3)
	if _, err := Dgetrs(lu, []int{0}, []float64{1, 2, 3}); err == nil {
		t.Fatal("short ipiv accepted")
	}
	if _, err := Dgetrs(lu, []int{0, 1, 2}, []float64{1}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestDgetrfNonSquare(t *testing.T) {
	if _, err := Dgetrf(mat.New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}
