// Benchmark harness: the §4 monitoring-overhead study and solver, kernel,
// engine and sparse micro-benchmarks. The paper's findings are claims
// (internal/core/claims.go), evaluated in EXPERIMENTS.md; cmd/lsbench
// prints every artifact row by row. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ime"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/scalapack"
	"repro/internal/slurm"
	"repro/internal/sparse"
)

// BenchmarkMonitoringOverhead measures the §4 synchronization-barrier
// overhead: the same distributed IMe solve with and without the white-box
// framework, on the exact engine with two full-load nodes.
func BenchmarkMonitoringOverhead(b *testing.B) {
	cfg, err := cluster.NewConfig(96, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		b.Fatal(err)
	}
	sys := mat.NewRandomSystem(192, 5)
	run := func(monitored bool) float64 {
		w, err := mpi.NewWorld(96, mpi.Options{Config: &cfg})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			var s *monitor.Session
			if monitored {
				var err error
				if s, err = monitor.Setup(p, p.World()); err != nil {
					return err
				}
				if err := s.StartMonitoring(); err != nil {
					return err
				}
			}
			if _, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true}); err != nil {
				return err
			}
			if monitored {
				if _, err := s.StopMonitoring(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return w.MaxClock()
	}
	var overhead float64
	for i := 0; i < b.N; i++ {
		plain := run(false)
		mon := run(true)
		overhead = (mon/plain - 1) * 100
	}
	b.ReportMetric(overhead, "%overhead")
}

// --- solver micro-benchmarks (real arithmetic on the exact engine) ---

func BenchmarkIMeSequential(b *testing.B) {
	sys := mat.NewRandomSystem(256, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ime.SolveSequential(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDgesvSequential(b *testing.B) {
	sys := mat.NewRandomSystem(256, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scalapack.Dgesv(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIMeParallelExact(b *testing.B) {
	sys := mat.NewRandomSystem(256, 2)
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(8, mpi.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(p *mpi.Proc) error {
			_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPdgesvParallelExact(b *testing.B) {
	sys := mat.NewRandomSystem(256, 2)
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(8, mpi.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(p *mpi.Proc) error {
			_, err := scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{BlockSize: 32})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticCell measures the cost of one analytic model cell —
// the unit of the figure sweeps — at the largest paper cell, for both
// schedule replays under both schedules.
func BenchmarkAnalyticCell(b *testing.B) {
	cfg, err := cluster.NewConfig(1296, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range perfmodel.Algorithms() {
		for _, sched := range []string{"overlap", "sync"} {
			prm := perfmodel.Params{Overlap: sched == "overlap"}
			b.Run(alg.String()+"/"+sched, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := perfmodel.Run(alg, 34560, cfg, prm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Kernel micro-benchmarks ---
//
// Blocked vs scalar compute kernels at the sizes the acceptance gate
// tracks (n=256, n=1024); gflops is the headline metric and the blocked/
// scalar ratio is the wall-clock speedup. BENCH_kernels.json records the
// baseline of this machine.

// fillKernelBench fills x with a deterministic LCG stream in [-1, 1).
func fillKernelBench(x []float64, seed uint64) {
	s := seed
	for i := range x {
		s = s*2862933555777941757 + 3037000493
		x[i] = float64(int64(s>>21)%2000-1000) / 1024
	}
}

type gemmFunc func(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)

func benchmarkGemm(b *testing.B, n int, f gemmFunc) {
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	c := make([]float64, n*n)
	fillKernelBench(a, 1)
	fillKernelBench(bm, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(n, n, n, 1, a, n, bm, n, c, n)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkKernelGemmBlocked(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkGemm(b, n, kernel.Gemm) })
	}
}

func BenchmarkKernelGemmScalar(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkGemm(b, n, kernel.GemmScalar) })
	}
}

// benchmarkTrailing measures the panel-width rank-kw update of the
// ScaLAPACK trailing submatrix: C -= L·U with L n×kw and U kw×n.
func benchmarkTrailing(b *testing.B, n int, f gemmFunc) {
	kw := scalapack.DefaultBlockSize
	l := make([]float64, n*kw)
	u := make([]float64, kw*n)
	c := make([]float64, n*n)
	fillKernelBench(l, 3)
	fillKernelBench(u, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(n, n, kw, -1, l, kw, u, n, c, n)
	}
	flops := 2 * float64(kw) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkKernelTrailingBlocked(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkTrailing(b, n, kernel.Gemm) })
	}
}

func BenchmarkKernelTrailingScalar(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkTrailing(b, n, kernel.GemmScalar) })
	}
}

// --- Engine scalability benchmarks (paper-scale worlds) ---
//
// BenchmarkWorldSetup and BenchmarkWorldSolve pin the simulated-MPI
// engine's cost at the paper's deployment sizes (144/576/1296 ranks,
// Table 1). ns/op and allocated bytes per world are the headline numbers;
// BENCH_world.json records the before/after of the sparse-mailbox engine.

// worldBenchRanks are the paper's §5.1 strong-scaling rank counts.
var worldBenchRanks = []int{144, 576, 1296}

// BenchmarkWorldSetup measures bare world construction: mailbox and
// accounting state for a full-load placement, no ranks started.
func BenchmarkWorldSetup(b *testing.B) {
	for _, ranks := range worldBenchRanks {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mpi.NewWorld(ranks, mpi.Options{Config: &cfg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorldSolve measures a small fixed solve (IMe, one table row per
// rank) through the full runtime: construction, rank goroutines, message
// matching, barrier merges and energy accounting. The 1296-rank case is
// skipped under -short so the CI smoke step stays fast.
func BenchmarkWorldSolve(b *testing.B) {
	for _, ranks := range worldBenchRanks {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			if testing.Short() && ranks > 576 {
				b.Skip("skipping paper-scale solve under -short")
			}
			cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
			if err != nil {
				b.Fatal(err)
			}
			sys := mat.NewRandomSystem(ranks, int64(ranks))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := mpi.NewWorld(ranks, mpi.Options{Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(func(p *mpi.Proc) error {
					_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveIMeParallelWall measures the real (wall-clock) cost of a
// full SolveParallel world — the solver-level view of the kernel work.
func BenchmarkSolveIMeParallelWall(b *testing.B) {
	sys := mat.NewRandomSystem(512, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(4, mpi.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(p *mpi.Proc) error {
			_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlurmSubmitRelease measures the fleet allocator at scale: one
// submit + release of a 12-node job on a 4096-node machine that is kept
// half busy (the fleet simulator's steady state). The bitmap free-set
// makes each op O(nodes granted); the map+sort structure it replaced
// rebuilt and sorted the ~2048-entry free list on every submit.
func BenchmarkSlurmSubmitRelease(b *testing.B) {
	machine := &cluster.MachineSpec{
		Name: "fleet-4096", TotalNodes: 4096, SocketsPerNode: 2,
		CoresPerSocket: 24, MemPerNodeGB: 192, ClockGHz: 2.1,
	}
	s, err := slurm.NewScheduler(machine)
	if err != nil {
		b.Fatal(err)
	}
	spec := slurm.JobSpec{Ranks: 576, Placement: cluster.FullLoad} // 12 nodes
	for s.FreeNodes() > machine.TotalNodes/2 {
		if _, err := s.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Release(a.JobID); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sparse iterative solvers (CSR SpMV + CG/BiCGSTAB) ---
//
// Wall-clock view of the sparse subsystem: the CSR SpMV kernel that
// dominates every iteration, the full distributed CG/BiCGSTAB world over
// simulated MPI, and the analytic device-model cell the campaign and the
// advisor evaluate per request. BENCH_sparse.json records the baseline.

func benchmarkSparseSpMV(b *testing.B, spec sparse.Spec) {
	a, err := spec.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	x := spec.RHS()
	dst := make([]float64, spec.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecInto(dst, x)
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(2*float64(a.NNZ())*float64(b.N)/sec/1e9, "gflops")
	// Streamed bytes per multiply: 8 B value + 8 B column index per
	// stored entry, plus the gathered x element.
	b.ReportMetric(24*float64(a.NNZ())*float64(b.N)/sec/1e9, "GB/s")
}

func BenchmarkSparseSpMV(b *testing.B) {
	for _, spec := range []sparse.Spec{
		{Kind: sparse.Banded, N: 16384, Band: 256, Cond: 1e4, Seed: core.SparseSweepSeed},
		{Kind: sparse.Banded, N: 131072, Band: 256, Cond: 1e4, Seed: core.SparseSweepSeed},
		{Kind: sparse.Random, N: 8192, Density: 1e-3, Cond: 1e4, Seed: core.SparseSweepSeed},
	} {
		spec := spec
		b.Run(spec.Label(), func(b *testing.B) {
			if testing.Short() && spec.N > 16384 {
				b.Skip("skipping large SpMV fixture under -short")
			}
			benchmarkSparseSpMV(b, spec)
		})
	}
}

// BenchmarkSparseSolveWorld runs a full distributed solve — matrix
// generation sharded per rank, halo-exchange plan, SpMV + dot + AXPY
// iterations to convergence — through the simulated-MPI runtime.
func BenchmarkSparseSolveWorld(b *testing.B) {
	spec := sparse.Spec{Kind: sparse.Banded, N: 4096, Band: 64, Cond: 1e2, Seed: core.SparseSweepSeed}
	for _, alg := range sparse.Algorithms() {
		alg := alg
		b.Run(alg.String()+"/ranks=8", func(b *testing.B) {
			var iters int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := mpi.NewWorld(8, mpi.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(func(p *mpi.Proc) error {
					sol, err := sparse.Solve(p, alg, spec, sparse.Options{ChargeCosts: true})
					if p.Rank() == 0 {
						iters = sol.Iters
					}
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkSparseAnalyticCell is the advisor-serving view: one analytic
// device-model evaluation at the largest sweep recipe, per device.
func BenchmarkSparseAnalyticCell(b *testing.B) {
	cfg, err := cluster.NewConfig(core.SparseSweepRanks, cluster.FullLoad, cluster.MarconiA3Accel())
	if err != nil {
		b.Fatal(err)
	}
	spec := sparse.Spec{Kind: sparse.Banded, N: 1048576, Band: 256, Cond: 1e4, Seed: core.SparseSweepSeed}
	for _, dev := range []cluster.Device{cluster.DeviceCPU, cluster.DeviceAccel} {
		dev := dev
		b.Run(dev.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparse.Model(sparse.CG, spec, cfg, dev, perfmodel.Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
