// Command fleet runs the energy-aware multi-tenant batch scheduler
// (internal/sched) over a workload trace on a simulated Marconi A3
// fleet, and writes the deterministic fleet report, the per-node
// Perfetto timeline and the scheduler benchmark artifact.
//
// Usage:
//
//	fleet -synthetic 200 -seed 1 -nodes 1024 -budget-w 250000   # seeded trace
//	fleet -workload trace.json -mtbf 3600 -policy energy-aware  # replay a file
//	fleet -synthetic 48 -trace fleet.trace.json                 # Perfetto timeline
//	fleet -synthetic 200 -nodes 1024 -bench BENCH_fleet.json    # vs FCFS baseline
//
// Determinism is the contract: the same seed and workload produce
// byte-identical reports, accounting and timelines at every -j and
// across restarts resuming predictions from -store.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/surrogate"
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
		useSurrogate = flag.Bool("surrogate", true, "price in-envelope candidates with the learned surrogate")
		storeDir     = flag.String("store", "", "experiment store directory: memoize exact predictions across runs")
		outPath      = flag.String("out", "", "write the fleet report here (default stdout)")
		tracePath    = flag.String("trace", "", "write the per-node Perfetto timeline here")
		benchPath    = flag.String("bench", "", "run energy-aware AND fcfs, write the comparison artifact here")
	)
	flag.Parse()

	if err := run(*workloadPath, *synthetic, *seed, *nodes, *budgetW, *mtbf, *faultSeed,
		*policyName, *workers, *useSurrogate, *storeDir, *outPath, *tracePath, *benchPath); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run(workloadPath string, synthetic int, seed int64, nodes int, budgetW, mtbf float64,
	faultSeed int64, policyName string, workers int, useSurrogate bool,
	storeDir, outPath, tracePath, benchPath string) error {
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
	if useSurrogate {
		if cfg.Surrogate, err = surrogate.Default(); err != nil {
			return err
		}
	}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
	}

	if benchPath != "" {
		return bench(cfg, w, benchPath)
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
	} else {
		os.Stdout.Write(body)
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
		fmt.Fprintf(os.Stderr, "fleet: store: %d predictions resumed, %d computed\n", o.StoreHits, o.StoreComputed)
	}
	return nil
}

// benchArtifact is the BENCH_fleet.json envelope: the energy-aware
// scheduler against the energy-oblivious FCFS baseline on one workload.
type benchArtifact struct {
	Description string       `json:"description"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Workload    benchWork    `json:"workload"`
	EnergyAware benchRun     `json:"energy_aware"`
	FCFS        benchRun     `json:"fcfs_baseline"`
	Savings     benchSavings `json:"savings"`
}

type benchWork struct {
	Seed         int64   `json:"seed"`
	Jobs         int     `json:"jobs"`
	Nodes        int     `json:"nodes"`
	PowerBudgetW float64 `json:"power_budget_w"`
	MTBFS        float64 `json:"mtbf_s"`
}

type benchRun struct {
	WallMS         float64 `json:"wall_ms"`
	JobsPerSec     float64 `json:"jobs_per_sec"`
	MakespanS      float64 `json:"makespan_s"`
	TotalEnergyJ   float64 `json:"total_energy_j"`
	PeakPowerW     float64 `json:"peak_power_w"`
	UtilizationPct float64 `json:"utilization_pct"`
	MeanWaitS      float64 `json:"mean_wait_s"`
	Backfills      int     `json:"backfills"`
	ScheduleDigest string  `json:"schedule_digest"`
}

type benchSavings struct {
	EnergyPct   float64 `json:"energy_pct"`
	MakespanPct float64 `json:"makespan_pct"`
}

func bench(cfg sched.Config, w sched.Workload, path string) error {
	runOne := func(policy sched.Policy) (benchRun, error) {
		c := cfg
		c.Policy = policy
		t0 := time.Now()
		o, err := sched.Simulate(c, w)
		if err != nil {
			return benchRun{}, err
		}
		wall := time.Since(t0)
		r := o.Report
		return benchRun{
			WallMS:         float64(wall.Microseconds()) / 1e3,
			JobsPerSec:     float64(len(r.Jobs)) / wall.Seconds(),
			MakespanS:      r.MakespanS,
			TotalEnergyJ:   r.TotalEnergyJ,
			PeakPowerW:     r.PeakPowerW,
			UtilizationPct: r.UtilizationPct,
			MeanWaitS:      r.MeanWaitS,
			Backfills:      r.Backfills,
			ScheduleDigest: r.ScheduleDigest,
		}, nil
	}
	aware, err := runOne(sched.EnergyAware)
	if err != nil {
		return err
	}
	base, err := runOne(sched.FCFSBaseline)
	if err != nil {
		return err
	}
	art := benchArtifact{
		Description: "Energy-aware batch scheduler vs energy-oblivious FCFS baseline on one seeded synthetic workload (cmd/fleet -bench). Schedules and energies are deterministic (the digests pin them); wall times and jobs/sec are machine-dependent — regenerate on the target machine before comparing.",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workload: benchWork{
			Seed: w.Seed, Jobs: len(w.Jobs), Nodes: cfg.Nodes,
			PowerBudgetW: cfg.PowerBudgetW, MTBFS: cfg.MTBF,
		},
		EnergyAware: aware,
		FCFS:        base,
		Savings: benchSavings{
			EnergyPct:   100 * (base.TotalEnergyJ - aware.TotalEnergyJ) / base.TotalEnergyJ,
			MakespanPct: 100 * (base.MakespanS - aware.MakespanS) / base.MakespanS,
		},
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet: bench: energy-aware %.1f kJ vs fcfs %.1f kJ (%.1f%% saved), makespan %.1fs vs %.1fs, %.0f vs %.0f jobs/s -> %s\n",
		aware.TotalEnergyJ/1e3, base.TotalEnergyJ/1e3, art.Savings.EnergyPct,
		aware.MakespanS, base.MakespanS, aware.JobsPerSec, base.JobsPerSec, path)
	return nil
}
