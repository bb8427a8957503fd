package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Axpy computes y ← a·x + y in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// Scale computes x ← a·x in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// VecClone returns a copy of x.
func VecClone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// InfNorm returns max|x_i|, or 0 for an empty vector.
func InfNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
