// Command lssolve solves a dense linear system with the Inhibition Method
// and/or ScaLAPACK-style Gaussian elimination on the simulated cluster,
// verifying the solution by residual — the paper's workload as a
// standalone tool.
//
// Usage:
//
//	lssolve -n 200 -seed 1 -ranks 4 -alg both      # generated input
//	lssolve -gen sys.txt -n 100 -seed 2            # write an input file
//	lssolve -in sys.txt -alg ime -ranks 5          # solve from a file
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/scalapack"
)

func main() {
	in := flag.String("in", "", "input system file (text or binary); empty = generate")
	gen := flag.String("gen", "", "write a generated system to this path and exit")
	n := flag.Int("n", 200, "order of the generated system")
	seed := flag.Int64("seed", 1, "generator seed")
	ranks := flag.Int("ranks", 4, "MPI ranks of the simulated job")
	alg := flag.String("alg", "both", "solver: ime, scalapack or both")
	nb := flag.Int("nb", 32, "ScaLAPACK block size")
	out := flag.String("out", "", "write the solution vector to this path")
	mtx := flag.String("mtx", "", "load the matrix from a MatrixMarket file (b = A·1)")
	trace := flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the rank timelines to this file")
	flag.Parse()
	tracePath = *trace

	var err error
	if *mtx != "" {
		err = runMatrixMarket(*mtx, *ranks, *nb)
	} else {
		err = run(*in, *gen, *n, *seed, *ranks, *alg, *nb, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lssolve: %v\n", err)
		os.Exit(1)
	}
}

// runMatrixMarket solves A·x = A·1 for a matrix loaded from a MatrixMarket
// file, so externally produced inputs drive the solvers directly.
func runMatrixMarket(path string, ranks, nb int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := mat.ReadMatrixMarket(f)
	if err != nil {
		return err
	}
	if a.Rows() != a.Cols() {
		return fmt.Errorf("matrix is %d×%d, need square", a.Rows(), a.Cols())
	}
	ones := make([]float64, a.Cols())
	for i := range ones {
		ones[i] = 1
	}
	sys := &mat.System{A: a, B: a.MulVec(ones), X: ones}
	fmt.Printf("loaded %d×%d MatrixMarket matrix from %s\n", a.Rows(), a.Cols(), path)
	x, dur, err := solveOne("scalapack", sys, ranks, nb)
	if err != nil {
		return err
	}
	fmt.Printf("scalapack  ranks=%-3d virtual-time=%.6fs relative-residual=%.3g\n",
		ranks, dur, mat.RelativeResidual(sys.A, x, sys.B))
	return nil
}

func run(in, gen string, n int, seed int64, ranks int, alg string, nb int, out string) error {
	if gen != "" {
		sys := mat.NewRandomSystem(n, seed)
		if err := mat.SaveSystem(gen, sys); err != nil {
			return err
		}
		fmt.Printf("wrote order-%d system to %s\n", n, gen)
		return nil
	}

	var sys *mat.System
	var err error
	if in != "" {
		sys, err = mat.LoadSystem(in)
		if err != nil {
			return err
		}
		fmt.Printf("loaded order-%d system from %s\n", sys.N(), in)
	} else {
		sys = mat.NewRandomSystem(n, seed)
		fmt.Printf("generated order-%d system (seed %d)\n", n, seed)
	}

	algs := []string{"ime", "scalapack"}
	switch alg {
	case "both":
	case "ime", "scalapack":
		algs = []string{alg}
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	var solution []float64
	for _, a := range algs {
		x, dur, err := solveOne(a, sys, ranks, nb)
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		rr := mat.RelativeResidual(sys.A, x, sys.B)
		fmt.Printf("%-10s ranks=%-3d virtual-time=%.6fs relative-residual=%.3g\n", a, ranks, dur, rr)
		solution = x
	}

	if out != "" && solution != nil {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		for i, v := range solution {
			fmt.Fprintf(f, "%d %.17g\n", i, v)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote solution to %s\n", out)
	}
	return nil
}

// tracePath, when set, receives a Chrome trace of the last solve.
var tracePath string

func solveOne(alg string, sys *mat.System, ranks, nb int) ([]float64, float64, error) {
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		return nil, 0, err
	}
	if tracePath != "" {
		w.EnableTracing()
		defer func() {
			f, err := os.Create(tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lssolve: trace: %v\n", err)
				return
			}
			defer f.Close()
			if err := w.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "lssolve: trace: %v\n", err)
				return
			}
			fmt.Printf("wrote rank timeline trace to %s\n", tracePath)
		}()
	}
	var mu sync.Mutex
	var x []float64
	err = w.Run(func(p *mpi.Proc) error {
		var sol []float64
		var err error
		switch alg {
		case "ime":
			sol, err = ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
		default:
			sol, err = scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{
				BlockSize: nb, ChargeCosts: true,
			})
		}
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			mu.Lock()
			x = sol
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return x, w.MaxClock(), nil
}
