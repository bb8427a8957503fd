// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), plus the §4 monitoring-overhead study, the §2.1 message
// accounting, the §6 power-capping extension, and solver micro-benchmarks.
//
// Each figure benchmark regenerates its artifact through the calibrated
// analytic engine and reports the paper-relevant headline metrics via
// b.ReportMetric; the full row-by-row series are printed by cmd/lsbench.
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ime"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/scalapack"
	"repro/internal/slurm"
	"repro/internal/sparse"
)

func newSweep(b *testing.B) *core.Sweep {
	b.Helper()
	s, err := core.SweepCells(core.SweepKeys(), perfmodel.Params{Overlap: true}).Collect(&core.Evaluator{Runner: grid.New(0)})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1Configs regenerates Table 1 (the nine test
// configurations) and reports the grid size.
func BenchmarkTable1Configs(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := core.Table1()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "configs")
}

// BenchmarkFigure3FullVsHalfLoad regenerates Figure 3 and reports the
// mean full-load energy saving against the one-socket half-load placement.
func BenchmarkFigure3FullVsHalfLoad(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		s := newSweep(b)
		t := s.Figure3()
		if len(t.Rows) != 24 {
			b.Fatalf("figure 3 has %d rows", len(t.Rows))
		}
		var sum float64
		var cells int
		for _, alg := range perfmodel.Algorithms() {
			for _, n := range cluster.PaperMatrixDims() {
				for _, ranks := range cluster.PaperRankCounts() {
					full, err := s.Get(alg, n, ranks, cluster.FullLoad)
					if err != nil {
						b.Fatal(err)
					}
					half, err := s.Get(alg, n, ranks, cluster.HalfLoadOneSocket)
					if err != nil {
						b.Fatal(err)
					}
					sum += 1 - full.TotalJ/half.TotalJ
					cells++
				}
			}
		}
		saving = sum / float64(cells)
	}
	b.ReportMetric(saving*100, "%full-load-saving")
}

// BenchmarkFigure4EnergyTimeFixedRanks regenerates Figure 4 and reports
// the superlinear energy growth factor per matrix doubling at 144 ranks.
func BenchmarkFigure4EnergyTimeFixedRanks(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		s := newSweep(b)
		if rows := len(s.Figure4().Rows); rows != 12 {
			b.Fatalf("figure 4 has %d rows", rows)
		}
		e1, err := s.Get(perfmodel.ScaLAPACK, 8640, 144, cluster.FullLoad)
		if err != nil {
			b.Fatal(err)
		}
		e2, err := s.Get(perfmodel.ScaLAPACK, 17280, 144, cluster.FullLoad)
		if err != nil {
			b.Fatal(err)
		}
		growth = e2.TotalJ / e1.TotalJ
	}
	b.ReportMetric(growth, "energy-growth-per-2x-n")
}

// BenchmarkFigure5EnergyTimeFixedMatrix regenerates Figure 5 and reports
// how many of the twelve cells IMe wins on duration (the crossover).
func BenchmarkFigure5EnergyTimeFixedMatrix(b *testing.B) {
	var imeWins int
	for i := 0; i < b.N; i++ {
		s := newSweep(b)
		if rows := len(s.Figure5().Rows); rows != 12 {
			b.Fatalf("figure 5 has %d rows", rows)
		}
		imeWins = 0
		for _, n := range cluster.PaperMatrixDims() {
			for _, ranks := range cluster.PaperRankCounts() {
				im, err := s.Get(perfmodel.IMe, n, ranks, cluster.FullLoad)
				if err != nil {
					b.Fatal(err)
				}
				ge, err := s.Get(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
				if err != nil {
					b.Fatal(err)
				}
				if im.DurationS < ge.DurationS {
					imeWins++
				}
			}
		}
	}
	b.ReportMetric(float64(imeWins), "IMe-faster-cells")
}

// BenchmarkFigure6EnergyPowerFixedRanks regenerates Figure 6 and reports
// the mean IMe-vs-ScaLAPACK average-power gap (the paper quotes 12–18%).
func BenchmarkFigure6EnergyPowerFixedRanks(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := newSweep(b)
		if rows := len(s.Figure6().Rows); rows != 12 {
			b.Fatalf("figure 6 has %d rows", rows)
		}
		var sum float64
		var cells int
		for _, n := range cluster.PaperMatrixDims() {
			for _, ranks := range cluster.PaperRankCounts() {
				im, err := s.Get(perfmodel.IMe, n, ranks, cluster.FullLoad)
				if err != nil {
					b.Fatal(err)
				}
				ge, err := s.Get(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
				if err != nil {
					b.Fatal(err)
				}
				sum += im.AvgPowerW()/ge.AvgPowerW() - 1
				cells++
			}
		}
		gap = sum / float64(cells)
	}
	b.ReportMetric(gap*100, "%power-gap")
}

// BenchmarkFigure7EnergyPowerFixedMatrix regenerates Figure 7 and reports
// the power proportionality factor from 144 to 1296 ranks (ideal 9×).
func BenchmarkFigure7EnergyPowerFixedMatrix(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		s := newSweep(b)
		if rows := len(s.Figure7().Rows); rows != 12 {
			b.Fatalf("figure 7 has %d rows", rows)
		}
		lo, err := s.Get(perfmodel.ScaLAPACK, 34560, 144, cluster.FullLoad)
		if err != nil {
			b.Fatal(err)
		}
		hi, err := s.Get(perfmodel.ScaLAPACK, 34560, 1296, cluster.FullLoad)
		if err != nil {
			b.Fatal(err)
		}
		factor = hi.AvgPowerW() / lo.AvgPowerW()
	}
	b.ReportMetric(factor, "power-x-144-to-1296")
}

// BenchmarkSocketImbalance regenerates the §5.3 per-socket breakdown and
// reports the idle/busy package-energy fraction of the one-socket
// placement (the paper observed 40–50%).
func BenchmarkSocketImbalance(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		s := newSweep(b)
		t, err := s.SocketBreakdown(17280, 144)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 6 {
			b.Fatalf("socket table has %d rows", len(t.Rows))
		}
		m, err := s.Get(perfmodel.IMe, 17280, 144, cluster.HalfLoadOneSocket)
		if err != nil {
			b.Fatal(err)
		}
		frac = m.EnergyJ[rapl.PKG1] / m.EnergyJ[rapl.PKG0]
	}
	b.ReportMetric(frac*100, "%idle-socket-energy")
}

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

// BenchmarkMessageAccounting runs the §2.1 traffic validation: a real
// distributed IMe solve whose counted messages must equal the closed form.
func BenchmarkMessageAccounting(b *testing.B) {
	sys := mat.NewRandomSystem(96, 6)
	var msgs int64
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
		msgs, _ = w.Traffic()
		if msgs != ime.ExpectedMessages(96, 8) {
			b.Fatalf("counted %d messages, closed form %d", msgs, ime.ExpectedMessages(96, 8))
		}
	}
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkPowerCapSweep models the §6 power-capping extension and
// reports the energy penalty of an 80 W cap on the 144-rank deployment.
func BenchmarkPowerCapSweep(b *testing.B) {
	cfg, err := cluster.NewConfig(144, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		b.Fatal(err)
	}
	var penalty float64
	for i := 0; i < b.N; i++ {
		base, err := perfmodel.Run(perfmodel.ScaLAPACK, 17280, cfg, perfmodel.Params{Overlap: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, capW := range []float64{140, 120, 100, 80} {
			r, err := perfmodel.Run(perfmodel.ScaLAPACK, 17280, cfg, perfmodel.Params{
				Overlap: true, PowerCapW: capW,
			})
			if err != nil {
				b.Fatal(err)
			}
			if capW == 80 {
				penalty = (r.TotalJ/base.TotalJ - 1) * 100
			}
		}
	}
	b.ReportMetric(penalty, "%energy-penalty-80W")
}

// BenchmarkOverlapAblation measures the DESIGN.md overlap ablation on the
// exact engine and reports the communication-hiding speedup.
func BenchmarkOverlapAblation(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		tab, err := core.OverlapAblation([]core.AblationCase{{N: 96, Ranks: 8}})
		if err != nil {
			b.Fatal(err)
		}
		var parsed float64
		if _, err := fmt.Sscanf(tab.Rows[0][4], "%g", &parsed); err != nil {
			b.Fatal(err)
		}
		speedup = parsed
	}
	b.ReportMetric(speedup, "overlap-speedup")
}

// BenchmarkBlockSizeAblation measures the ScaLAPACK nb sweep on the exact
// engine and reports the best-to-worst makespan ratio.
func BenchmarkBlockSizeAblation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab, err := core.BlockSizeAblation(96, 4, []int{4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		worst, best := 0.0, 1e300
		for _, row := range tab.Rows {
			var v float64
			if _, err := fmt.Sscanf(row[1], "%g", &v); err != nil {
				b.Fatal(err)
			}
			if v > worst {
				worst = v
			}
			if v < best {
				best = v
			}
		}
		ratio = worst / best
	}
	b.ReportMetric(ratio, "nb-worst/best")
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
