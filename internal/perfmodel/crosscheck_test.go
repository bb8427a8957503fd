package perfmodel_test

// Cross-validation of the analytic engine against the executable
// simulated-MPI engine, from 2 up to the paper's 576-rank production
// deployment: the same cost constants drive both,
// so the analytic durations and energies must land near what the real
// distributed execution (with its synchronous store-and-forward
// collectives) accumulates. Overlap is disabled to match the synchronous
// executable engine.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/scalapack"
)

// singleNodeConfig builds a synthetic one-node placement with all ranks on
// socket 0, matching an mpi.World built without a cluster config.
func singleNodeConfig(ranks int) cluster.Config {
	return cluster.Config{
		Spec:         cluster.MarconiA3(),
		Placement:    cluster.HalfLoadOneSocket,
		Ranks:        ranks,
		Nodes:        1,
		RanksPerNode: ranks,
		SocketsUsed:  1,
		RanksSocket0: ranks,
	}
}

func ratioWithin(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want <= 0 {
		t.Fatalf("%s: non-positive reference %g", name, want)
	}
	r := got / want
	if r < 1/tol || r > tol {
		t.Errorf("%s: analytic %g vs executed %g (ratio %.2f, tolerance ×%.1f)", name, got, want, r, tol)
	}
}

func TestIMeAnalyticMatchesExecution(t *testing.T) {
	const n, ranks = 240, 8
	sys := mat.NewRandomSystem(n, 42)
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfmodel.Run(perfmodel.IMe, n, singleNodeConfig(ranks), perfmodel.Params{Overlap: false})
	if err != nil {
		t.Fatal(err)
	}
	ratioWithin(t, "IMe duration", res.DurationS, w.MaxClock(), 1.6)

	node := w.Nodes()[0]
	execJ := node.ExactEnergy(rapl.PKG0) + node.ExactEnergy(rapl.PKG1) +
		node.ExactEnergy(rapl.DRAM0) + node.ExactEnergy(rapl.DRAM1)
	ratioWithin(t, "IMe energy", res.TotalJ, execJ, 1.8)
}

func TestScalapackAnalyticMatchesExecution(t *testing.T) {
	const n, ranks, nb = 240, 4, 16
	sys := mat.NewRandomSystem(n, 43)
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		_, err := scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{
			BlockSize: nb, ChargeCosts: true,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfmodel.Run(perfmodel.ScaLAPACK, n, singleNodeConfig(ranks), perfmodel.Params{
		Overlap: false, BlockSize: nb,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratioWithin(t, "ScaLAPACK duration", res.DurationS, w.MaxClock(), 2.0)

	node := w.Nodes()[0]
	execJ := node.ExactEnergy(rapl.PKG0) + node.ExactEnergy(rapl.PKG1) +
		node.ExactEnergy(rapl.DRAM0) + node.ExactEnergy(rapl.DRAM1)
	ratioWithin(t, "ScaLAPACK energy", res.TotalJ, execJ, 2.0)
}

// TestLargeScaleAnalyticMatchesExecution cross-checks the model at one of
// the paper's production deployments: 576 ranks (12 full-loaded nodes in
// Table 1), two matrix rows per rank. The sparse-matching engine executes
// this as an ordinary test — the previous dense engine made worlds this
// size impractical, which is why the cross-check used to stop at 12 ranks.
// Both engine cells (IMe and ScaLAPACK) run concurrently under one grid
// worker budget. Skipped with -short: the solve is real distributed
// numerics at n=1152.
func TestLargeScaleAnalyticMatchesExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("576-rank executable world; run without -short")
	}
	const n, ranks, nb = 1152, 576, 16
	sys := mat.CachedSystem(n, int64(n))
	// The real Table 1 deployment: 576 ranks full-loading 12 nodes. Both
	// engines see the same placement, so inter-node wire costs and idle
	// power are attributed identically.
	cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	runCell := func(solve func(p *mpi.Proc) error) func() (*mpi.World, error) {
		return func() (*mpi.World, error) {
			w, err := mpi.NewWorld(ranks, mpi.Options{Config: &cfg})
			if err != nil {
				return nil, err
			}
			if err := w.Run(solve); err != nil {
				return nil, err
			}
			return w, nil
		}
	}
	worlds, err := grid.Map(grid.New(0), 2, func(i int) (*mpi.World, error) {
		if i == 0 {
			return runCell(func(p *mpi.Proc) error {
				_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
				return err
			})()
		}
		return runCell(func(p *mpi.Proc) error {
			_, err := scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{BlockSize: nb, ChargeCosts: true})
			return err
		})()
	})
	if err != nil {
		t.Fatal(err)
	}
	imeW, geW := worlds[0], worlds[1]
	clusterEnergy := func(w *mpi.World) float64 {
		var total float64
		for _, node := range w.Nodes() {
			total += node.ExactEnergy(rapl.PKG0) + node.ExactEnergy(rapl.PKG1) +
				node.ExactEnergy(rapl.DRAM0) + node.ExactEnergy(rapl.DRAM1)
		}
		return total
	}

	// Tolerances are wider than the 8-rank checks above: at two matrix
	// rows per rank the cell is purely latency-bound, and the analytic
	// broadcast-chain bound is conservative against the executed engine's
	// binomial store-and-forward trees (mpi Bcast; ≈2.1× here) while
	// staying well inside one order of magnitude.
	res, err := perfmodel.Run(perfmodel.IMe, n, cfg, perfmodel.Params{Overlap: false})
	if err != nil {
		t.Fatal(err)
	}
	ratioWithin(t, "IMe 576-rank duration", res.DurationS, imeW.MaxClock(), 2.5)
	ratioWithin(t, "IMe 576-rank energy", res.TotalJ, clusterEnergy(imeW), 2.5)

	res, err = perfmodel.Run(perfmodel.ScaLAPACK, n, cfg, perfmodel.Params{Overlap: false, BlockSize: nb})
	if err != nil {
		t.Fatal(err)
	}
	ratioWithin(t, "ScaLAPACK 576-rank duration", res.DurationS, geW.MaxClock(), 2.5)
	ratioWithin(t, "ScaLAPACK 576-rank energy", res.TotalJ, clusterEnergy(geW), 2.5)
}

// TestAnalyticScalesAgainstExecution checks the model tracks the executed
// engine's *trend* as the rank count changes, not just one point.
func TestAnalyticScalesAgainstExecution(t *testing.T) {
	const n = 180
	sys := mat.NewRandomSystem(n, 44)
	exec := make(map[int]float64)
	model := make(map[int]float64)
	for _, ranks := range []int{2, 6, 12} {
		w, err := mpi.NewWorld(ranks, mpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(p *mpi.Proc) error {
			_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		exec[ranks] = w.MaxClock()
		res, err := perfmodel.Run(perfmodel.IMe, n, singleNodeConfig(ranks), perfmodel.Params{Overlap: false})
		if err != nil {
			t.Fatal(err)
		}
		model[ranks] = res.DurationS
	}
	// Speedup from 2 to 12 ranks must agree within a factor of 2.
	execSpeedup := exec[2] / exec[12]
	modelSpeedup := model[2] / model[12]
	if r := modelSpeedup / execSpeedup; r < 0.5 || r > 2 {
		t.Fatalf("speedup mismatch: model %.2f× vs executed %.2f×", modelSpeedup, execSpeedup)
	}
}
