package mat

import (
	"math"
	"testing"
)

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v", got)
	}
	z := VecClone(y)
	Axpy(2, x, z)
	if z[0] != 6 || z[1] != -1 || z[2] != 12 {
		t.Fatalf("Axpy = %v", z)
	}
	Scale(0.5, z)
	if z[0] != 3 {
		t.Fatalf("Scale = %v", z)
	}
	if got := InfNorm(y); got != 6 {
		t.Fatalf("InfNorm = %v", got)
	}
}

func TestVectorOpsMismatchedLengthsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { Axpy(1, []float64{1}, []float64{1, 2}) },
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

func TestNorms(t *testing.T) {
	m, _ := NewFromData(2, 2, []float64{1, -7, 3, 2})
	if got := InfOpNorm(m); got != 8 {
		t.Fatalf("InfOpNorm = %v", got)
	}
}

func TestResidualZeroForExactSolution(t *testing.T) {
	s := NewRandomSystem(15, 4)
	if r := Residual(s.A, s.X, s.B); r > 1e-10 {
		t.Fatalf("residual of exact solution = %g", r)
	}
	if rr := RelativeResidual(s.A, s.X, s.B); rr > 1e-14 {
		t.Fatalf("relative residual = %g", rr)
	}
}

func TestResidualDetectsWrongSolution(t *testing.T) {
	s := NewRandomSystem(10, 8)
	bad := VecClone(s.X)
	bad[3] += 1
	if r := Residual(s.A, bad, s.B); r < 0.1 {
		t.Fatalf("residual of perturbed solution too small: %g", r)
	}
}

func TestRelativeResidualEmptySystem(t *testing.T) {
	a := New(0, 0)
	if rr := RelativeResidual(a, nil, nil); rr != 0 {
		t.Fatalf("empty system relative residual = %g, want 0", rr)
	}
}

func TestInfNormEmpty(t *testing.T) {
	if InfNorm(nil) != 0 {
		t.Fatal("InfNorm(nil) != 0")
	}
	if !math.IsInf(1/InfNorm([]float64{0})+math.Inf(1), 1) {
		// trivially true; keeps math import honest in minimal builds
		t.Skip()
	}
}
