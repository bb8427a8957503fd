package monitor_test

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/scalapack"
)

// Example solves one linear system with both of the paper's solvers —
// sequentially, then distributed on a simulated two-node cluster under the
// white-box energy-monitoring framework — and prints what the framework
// measured. Residuals are printed as bounds: their last digits depend on
// whether the CPU fuses multiply-adds.
func Example() {
	// The input: a diagonally dominant system with a known solution,
	// generated deterministically (the paper loads equivalent inputs from
	// files so repeated measurements see identical data).
	const n = 384
	sys := mat.NewRandomSystem(n, 2023)
	fmt.Printf("system: order %d, diagonally dominant, seed 2023\n", n)

	// Sequential baselines.
	xIMe, err := ime.SolveSequential(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential IMe:        residual < 1e-12: %v\n", mat.RelativeResidual(sys.A, xIMe, sys.B) < 1e-12)
	xGE, err := scalapack.Dgesv(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential ScaLAPACK:  residual < 1e-12: %v\n", mat.RelativeResidual(sys.A, xGE, sys.B) < 1e-12)

	// Distributed monitored runs: 96 ranks on two full-load Marconi A3
	// nodes; one monitoring rank per node reads the RAPL counters through
	// PAPI around the solve.
	cfg, err := cluster.NewConfig(96, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		log.Fatal(err)
	}
	for _, alg := range []string{"IMe", "ScaLAPACK"} {
		sum, err := monitoredRun(alg, sys, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("monitored %-10s %d nodes: %8.3f J in %.6f s (avg %6.1f W)\n",
			alg, sum.Nodes, sum.TotalJ, sum.DurationS, sum.AvgPowerW())
		names := make([]string, 0, len(sum.ByEvent))
		for name := range sum.ByEvent {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-38s %10.4f J\n", name, sum.ByEvent[name])
		}
	}
	// Output:
	// system: order 384, diagonally dominant, seed 2023
	// sequential IMe:        residual < 1e-12: true
	// sequential ScaLAPACK:  residual < 1e-12: true
	// monitored IMe        2 nodes:    9.299 J in 0.014616 s (avg  636.2 W)
	//     powercap:::DRAM_ENERGY:PACKAGE0            0.2673 J
	//     powercap:::DRAM_ENERGY:PACKAGE1            0.2673 J
	//     powercap:::PACKAGE_ENERGY:PACKAGE0         4.4481 J
	//     powercap:::PACKAGE_ENERGY:PACKAGE1         4.3166 J
	// monitored ScaLAPACK  2 nodes:    3.151 J in 0.004956 s (avg  635.8 W)
	//     powercap:::DRAM_ENERGY:PACKAGE0            0.0905 J
	//     powercap:::DRAM_ENERGY:PACKAGE1            0.0906 J
	//     powercap:::PACKAGE_ENERGY:PACKAGE0         1.5074 J
	//     powercap:::PACKAGE_ENERGY:PACKAGE1         1.4628 J
}

// monitoredRun solves sys with one algorithm on cfg, every node's
// monitoring rank bracketing the solve, and summarises the node reports.
func monitoredRun(alg string, sys *mat.System, cfg cluster.Config) (monitor.RunSummary, error) {
	w, err := mpi.NewWorld(cfg.Ranks, mpi.Options{Config: &cfg})
	if err != nil {
		return monitor.RunSummary{}, err
	}
	var mu sync.Mutex
	var reports []monitor.NodeReport
	err = w.Run(func(p *mpi.Proc) error {
		s, err := monitor.Setup(p, p.World())
		if err != nil {
			return err
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		var x []float64
		if alg == "IMe" {
			x, err = ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
		} else {
			x, err = scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{
				BlockSize: 16, ChargeCosts: true,
			})
		}
		if err != nil {
			return err
		}
		rep, err := s.StopMonitoring()
		if err != nil {
			return err
		}
		all, err := monitor.CollectReports(p, p.World(), rep)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if rr := mat.RelativeResidual(sys.A, x, sys.B); rr > 1e-9 {
				return fmt.Errorf("distributed %s residual %g", alg, rr)
			}
			mu.Lock()
			reports = all
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return monitor.RunSummary{}, err
	}
	return monitor.Summarize(reports), nil
}
