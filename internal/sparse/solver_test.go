package sparse

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/scalapack"
)

// runSolve executes a distributed solve and checks every rank returned
// the identical full solution.
func runSolve(t *testing.T, alg Algorithm, spec Spec, ranks int, opt Options) Solution {
	t.Helper()
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	sols := make([]Solution, ranks)
	err = w.Run(func(p *mpi.Proc) error {
		sol, err := Solve(p, alg, spec, opt)
		if err != nil {
			return err
		}
		mu.Lock()
		sols[p.Rank()] = sol
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		for i := range sols[0].X {
			if sols[r].X[i] != sols[0].X[i] {
				t.Fatalf("rank %d solution diverges at x[%d]: %g != %g", r, i, sols[r].X[i], sols[0].X[i])
			}
		}
	}
	return sols[0]
}

// denseReference solves the same system with the dense direct solver.
func denseReference(t *testing.T, spec Spec) []float64 {
	t.Helper()
	a, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	x, err := scalapack.Dgesv(&mat.System{A: a.Dense(), B: spec.RHS()})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func checkAgainstDense(t *testing.T, alg Algorithm, spec Spec, ranks int) {
	t.Helper()
	want := denseReference(t, spec)
	sol := runSolve(t, alg, spec, ranks, Options{Tol: 1e-12})
	norm := 0.0
	for _, v := range want {
		norm = math.Max(norm, math.Abs(v))
	}
	for i := range want {
		if math.Abs(sol.X[i]-want[i]) > 1e-9*(1+norm) {
			t.Fatalf("%s %s ranks=%d: x[%d] = %.15g, dense reference %.15g (iters %d)",
				alg, spec.Label(), ranks, i, sol.X[i], want[i], sol.Iters)
		}
	}
	if sol.Residual > 1e-10 {
		t.Fatalf("%s %s: reported residual %g", alg, spec.Label(), sol.Residual)
	}
}

func TestCGMatchesDenseReference(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: Banded, N: 96, Band: 5, Cond: 100, Seed: 3},
		{Kind: Random, N: 80, Density: 0.08, Cond: 40, Seed: 5},
	} {
		for _, ranks := range []int{1, 3, 8} {
			checkAgainstDense(t, CG, spec, ranks)
		}
	}
}

func TestBiCGSTABMatchesDenseReference(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: Banded, N: 96, Band: 5, Cond: 100, Seed: 3},
		{Kind: Random, N: 80, Density: 0.08, Cond: 40, Seed: 5},
	} {
		for _, ranks := range []int{1, 4} {
			checkAgainstDense(t, BiCGSTAB, spec, ranks)
		}
	}
}

func TestSolveDeterministicRerun(t *testing.T) {
	spec := Spec{Kind: Banded, N: 64, Band: 3, Cond: 64, Seed: 9}
	a := runSolve(t, CG, spec, 4, Options{})
	b := runSolve(t, CG, spec, 4, Options{})
	if a.Iters != b.Iters || a.Residual != b.Residual {
		t.Fatalf("rerun differs: %d/%g vs %d/%g", a.Iters, a.Residual, b.Iters, b.Residual)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("rerun not bitwise identical at x[%d]", i)
		}
	}
}

// TestSolve96Ranks is the scale point of the race lane: 96 ranks, both
// solvers, true residual verified against the generated matrix.
func TestSolve96Ranks(t *testing.T) {
	spec := Spec{Kind: Banded, N: 960, Band: 4, Cond: 50, Seed: 13}
	a, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	b := spec.RHS()
	bn := math.Sqrt(mat.Dot(b, b))
	for _, alg := range Algorithms() {
		sol := runSolve(t, alg, spec, 96, Options{ChargeCosts: true})
		r := a.MulVec(sol.X)
		for i := range r {
			r[i] -= b[i]
		}
		if rr := math.Sqrt(mat.Dot(r, r)) / bn; rr > 1e-8 {
			t.Fatalf("%s at 96 ranks: true relative residual %g", alg, rr)
		}
	}
}

// TestCrashSurfacesRankFailed pins the fault contract: a rank crashing
// mid-solve turns into mpi.ErrRankFailed on the live ranks — never a
// deadlock.
func TestCrashSurfacesRankFailed(t *testing.T) {
	const ranks, victim = 6, 2
	inj, err := fault.New(fault.Config{
		// The virtual clock advances in ~µs steps per iteration; crash
		// almost immediately so the halo/allreduce path hits the corpse.
		Events: []fault.Event{{Time: 1e-6, Ranks: []int{victim}}},
	}, ranks)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(ranks, mpi.Options{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: Banded, N: 600, Band: 8, Cond: 1e4, Seed: 21}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *mpi.Proc) error {
			_, err := Solve(p, CG, spec, Options{ChargeCosts: true})
			return err
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, mpi.ErrRankFailed) {
			t.Fatalf("solve with crashed rank returned %v, want mpi.ErrRankFailed", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("solve with crashed rank deadlocked")
	}
}

func TestSolveRejects(t *testing.T) {
	w, err := mpi.NewWorld(4, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		if _, err := Solve(p, CG, Spec{Kind: Banded, N: 2, Band: 1, Cond: 10}, Options{}); err == nil {
			return errors.New("accepted more ranks than rows")
		}
		if _, err := Solve(p, CG, Spec{Kind: Banded, N: 0, Band: 1, Cond: 10}, Options{}); err == nil {
			return errors.New("accepted invalid spec")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonConvergenceError forces MaxIter exhaustion and checks the error
// is typed as such rather than returning a bogus solution.
func TestNonConvergenceError(t *testing.T) {
	spec := Spec{Kind: Banded, N: 64, Band: 3, Cond: 1e6, Seed: 2}
	w, err := mpi.NewWorld(2, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		_, err := Solve(p, CG, spec, Options{MaxIter: 2})
		if err == nil {
			return errors.New("2-iteration budget converged on a κ=1e6 system")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
