package scalapack_test

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/scalapack"
)

// ExampleDgesv solves a system needing a pivot swap.
func ExampleDgesv() {
	a, _ := mat.NewFromData(2, 2, []float64{0, 1, 1, 0})
	x, err := scalapack.Dgesv(&mat.System{A: a, B: []float64{3, 7}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("x = [%.0f %.0f]\n", x[0], x[1])
	// Output: x = [7 3]
}
