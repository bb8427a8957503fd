package sparse

import (
	"testing"
	"time"

	"repro/internal/mpi"
)

// The sparse-krylov workload of bench/: CG then BiCGSTAB, charged, on a
// banded n=4096 system over 8 ranks. benchRandom is the unstructured
// counterpart, whose rows are runs of one or two.
var (
	benchBanded = Spec{Kind: Banded, N: 4096, Band: 64, Cond: 1e2, Seed: 20230612}
	benchRandom = Spec{Kind: Random, N: 1500, Density: 0.02, Cond: 60, Seed: 7}
)

const benchRanks = 8

// BenchmarkSpMV times one SpMV of the solver's kernel for each kind beside
// the per-entry-index oracle on the same rows: the band kernel on the full
// banded operator (streams from L3) and on one rank's 512-row block of it
// (cache resident, as in the solve), and the run kernel on the full
// unstructured one.
func BenchmarkSpMV(b *testing.B) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		lo, hi int
	}{
		{"banded-full", benchBanded, 0, benchBanded.N},
		{"banded-block512", benchBanded, 1024, 1536},
		{"random-full", benchRandom, 0, benchRandom.N},
	} {
		a, err := tc.spec.RowBlock(tc.lo, tc.hi)
		if err != nil {
			b.Fatal(err)
		}
		x, dst := tc.spec.RHS(), make([]float64, a.Rows)
		var kernel func()
		name := "band"
		if tc.spec.Kind == Banded {
			m, err := tc.spec.bandBlock(tc.lo, tc.hi)
			if err != nil {
				b.Fatal(err)
			}
			xext := x[m.e0 : m.e0+m.cols()]
			kernel = func() { m.mulVecInto(dst, xext) }
		} else {
			m := runsOf(a)
			kernel, name = func() { m.mulVecInto(dst, x) }, "runs"
		}
		b.Run(tc.name+"/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel()
			}
		})
		b.Run(tc.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refMulVecInto(a, dst, x)
			}
		})
	}
}

// solveOp runs the workload's op once and returns the two iteration
// counts.
func solveOp(b *testing.B, spec Spec) (iters [2]int) {
	for k, alg := range Algorithms() {
		w, err := mpi.NewWorld(benchRanks, mpi.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(p *mpi.Proc) error {
			sol, err := Solve(p, alg, spec, Options{ChargeCosts: true})
			if p.Rank() == 0 {
				iters[k] = sol.Iters
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	return iters
}

// BenchmarkSolveOp is the whole op, per matrix kind.
func BenchmarkSolveOp(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"banded", benchBanded}, {"random", benchRandom}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveOp(b, tc.spec)
			}
		})
	}
}

// BenchmarkOpSplit says where the host time of one banded op goes: each
// part runs alone on an 8-rank world as often as the op runs it (two
// generations of every rank's band block and halo plan; one SpMV and one
// halo exchange per CG iteration and two per BiCGSTAB iteration; the dot
// allreduces of both solvers), and part-ms/op is the wall time from the
// barrier before the first call to the barrier after the last. "spmv"
// alone keeps each rank's block (0.3 MB of upper diagonals) in its core's
// L2; "halo+spmv" alternates the two as an iteration does, so the ranks
// take turns on the cores and every block streams from L3 again — that,
// not the sum of "halo" and "spmv", is what an iteration pays, and why
// storing half the band pays. What the parts leave of
// BenchmarkSolveOp/banded is the vector updates, world start-up and the
// final allgather.
func BenchmarkOpSplit(b *testing.B) {
	iters := solveOp(b, benchBanded)
	cg, bi := iters[0], iters[1]
	for _, part := range []struct {
		name  string
		calls int
		call  func(d *dist, v, dst []float64) error
	}{
		{"generate", 0, nil},
		{"spmv", cg + 2*bi, func(d *dist, v, dst []float64) error { d.spmv(1, dst); return nil }},
		{"halo", cg + 2*bi, func(d *dist, v, dst []float64) error { return d.exchange(1, v) }},
		{"halo+spmv", cg + 2*bi, func(d *dist, v, dst []float64) error {
			if err := d.exchange(1, v); err != nil {
				return err
			}
			d.spmv(1, dst)
			return nil
		}},
		{"dots", 2 + 2*cg + 2*bi, func(d *dist, v, dst []float64) error {
			_, err := d.dots(1, dotPairs{{v, dst}})
			return err
		}},
		{"dots-fused3", bi, func(d *dist, v, dst []float64) error {
			_, err := d.dots(1, dotPairs{{v, dst}, {v, v}, {dst, dst}})
			return err
		}},
	} {
		b.Run(part.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				w, err := mpi.NewWorld(benchRanks, mpi.Options{})
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				err = w.Run(func(p *mpi.Proc) error {
					d, err := newDist(p, benchBanded, true)
					if err != nil || part.call == nil {
						return err
					}
					v, dst := benchBanded.RHSRange(d.lo, d.hi), make([]float64, d.rows)
					if err := p.Barrier(d.c); err != nil {
						return err
					}
					if p.Rank() == 0 {
						start = time.Now()
					}
					for k := 0; k < part.calls; k++ {
						if err := part.call(d, v, dst); err != nil {
							return err
						}
					}
					return p.Barrier(d.c)
				})
				if err != nil {
					b.Fatal(err)
				}
				if part.call == nil {
					total += 2 * time.Since(start) // one generation per solver
				} else {
					total += time.Since(start)
				}
			}
			b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "part-ms/op")
		})
	}
}
