package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiagonallyDominantProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(abs64(seed)%20) + 2
		m := NewDiagonallyDominant(n, seed)
		for i := 0; i < n; i++ {
			var off float64
			row := m.Row(i)
			for j, v := range row {
				if j != i {
					off += math.Abs(v)
				}
			}
			if math.Abs(row[i]) <= off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := NewDiagonallyDominant(10, 42)
	b := NewDiagonallyDominant(10, 42)
	if !a.EqualApprox(b, 0) {
		t.Fatal("same seed must give identical matrices")
	}
	c := NewDiagonallyDominant(10, 43)
	if a.EqualApprox(c, 0) {
		t.Fatal("different seeds should give different matrices")
	}
}

func TestRandomSystemConsistent(t *testing.T) {
	s := NewRandomSystem(12, 7)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// b was generated as A·x, so residual of the generating solution is ~0.
	if r := RelativeResidual(s.A, s.X, s.B); r > 1e-14 {
		t.Fatalf("generating solution residual %g too large", r)
	}
}

func TestSystemValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		sys  System
	}{
		{"nil matrix", System{B: []float64{1}}},
		{"non-square", System{A: New(2, 3), B: []float64{1, 2}}},
		{"rhs length", System{A: New(2, 2), B: []float64{1}}},
		{"sol length", System{A: New(2, 2), B: []float64{1, 2}, X: []float64{1}}},
	}
	for _, tc := range cases {
		if err := tc.sys.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}
