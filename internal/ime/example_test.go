package ime_test

import (
	"fmt"

	"repro/internal/ime"
	"repro/internal/mat"
)

// ExampleSolveSequential solves a tiny system with the Inhibition Method.
func ExampleSolveSequential() {
	a, _ := mat.NewFromData(2, 2, []float64{2, 1, 1, 3})
	sys := &mat.System{A: a, B: []float64{5, 10}}
	x, err := ime.SolveSequential(sys)
	if err != nil {
		panic(err)
	}
	fmt.Printf("x = [%.0f %.0f]\n", x[0], x[1])
	// Output: x = [1 3]
}
