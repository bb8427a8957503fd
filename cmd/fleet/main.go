// Command fleet runs the energy-aware multi-tenant batch scheduler
// (internal/sched) over a workload trace on a simulated Marconi A3
// fleet, and writes the deterministic fleet report and the per-node
// Perfetto timeline.
//
// Usage:
//
//	fleet -synthetic 200 -seed 1 -nodes 1024 -budget-w 250000   # seeded trace
//	fleet -workload trace.json -mtbf 3600 -policy energy-aware  # replay a file
//	fleet -synthetic 48 -trace fleet.trace.json                 # Perfetto timeline
//	fleet -synthetic 200 -nodes 1024 -policy fcfs -out f.json   # FCFS baseline
//
// Determinism is the contract: the same seed and workload produce
// byte-identical reports, accounting and timelines at every -j and
// across restarts resuming predictions from -store.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/sched"
	"repro/internal/store"
)

func main() {
	var (
		workloadPath = flag.String("workload", "", "workload trace file (JSON; see internal/sched.Workload)")
		synthetic    = flag.Int("synthetic", 0, "generate a seeded synthetic workload with this many jobs")
		seed         = flag.Int64("seed", 1, "synthetic workload seed")
		nodes        = flag.Int("nodes", 0, "fleet size in nodes (0 = full Marconi A3, 3188)")
		budgetW      = flag.Float64("budget-w", 0, "cluster power budget in watts (0 = unlimited)")
		mtbf         = flag.Float64("mtbf", 0, "mean time between rank crashes per job, virtual seconds (0 = fault-free)")
		faultSeed    = flag.Int64("fault-seed", 0, "fault-plane seed (with the workload fixed, varies only the crashes)")
		policyName   = flag.String("policy", "energy-aware", "scheduling policy: energy-aware or fcfs")
		workers      = flag.Int("j", 0, "prediction workers (0 = GOMAXPROCS); the schedule is identical for every value")
		storeDir     = flag.String("store", "", "experiment store directory: memoize exact predictions across runs")
		outPath      = flag.String("out", "", "write the fleet report here (default stdout)")
		tracePath    = flag.String("trace", "", "write the per-node Perfetto timeline here")
	)
	flag.Parse()

	if err := run(*workloadPath, *synthetic, *seed, *nodes, *budgetW, *mtbf, *faultSeed,
		*policyName, *workers, *storeDir, *outPath, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run(workloadPath string, synthetic int, seed int64, nodes int, budgetW, mtbf float64,
	faultSeed int64, policyName string, workers int,
	storeDir, outPath, tracePath string) error {
	var w sched.Workload
	switch {
	case workloadPath != "" && synthetic > 0:
		return fmt.Errorf("-workload and -synthetic are mutually exclusive")
	case workloadPath != "":
		f, err := os.Open(workloadPath)
		if err != nil {
			return err
		}
		w, err = sched.ParseWorkload(f)
		f.Close()
		if err != nil {
			return err
		}
	case synthetic > 0:
		w = sched.Synthetic(seed, synthetic)
	default:
		return fmt.Errorf("name a workload: -workload FILE or -synthetic N")
	}

	policy, err := sched.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	cfg := sched.Config{
		Nodes:        nodes,
		PowerBudgetW: budgetW,
		Policy:       policy,
		MTBF:         mtbf,
		FaultSeed:    faultSeed,
		Workers:      workers,
		Trace:        tracePath != "",
	}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
	}

	t0 := time.Now()
	o, err := sched.Simulate(cfg, w)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	body, err := o.Report.Marshal()
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, body, 0o644); err != nil {
			return err
		}
	} else if _, err := os.Stdout.Write(body); err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := o.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	rep := o.Report
	fmt.Fprintf(os.Stderr, "fleet: %d jobs on %d nodes in %v wall (%.0f jobs/s): makespan %.1fs, energy %.1f kJ, peak %.0f W, util %.1f%%, digest %s\n",
		len(rep.Jobs), rep.Nodes, wall.Round(time.Millisecond),
		float64(len(rep.Jobs))/wall.Seconds(), rep.MakespanS, rep.TotalEnergyJ/1e3,
		rep.PeakPowerW, rep.UtilizationPct, rep.ScheduleDigest[:16])
	if storeDir != "" && o.StoreHits+o.StoreComputed > 0 {
		fmt.Fprintf(os.Stderr, "fleet: %d store hits, %d computed\n", o.StoreHits, o.StoreComputed)
	}
	return nil
}
