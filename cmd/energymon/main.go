// Command energymon runs one monitored experiment on the simulated
// cluster — the full §4 pipeline: per-node communicators, designated
// monitoring ranks, PAPI powercap counters around the distributed solve —
// and writes one human-readable energy file per processor, exactly as the
// paper's framework does. The run is core.RunMonitoredInstrumented's
// compute-phase run: the counters cover the solve, not the allocation.
//
// Usage:
//
//	energymon -alg ime -n 384 -ranks 96 -outdir results/
//
// The observability flags stream the run's telemetry:
//
//	energymon -alg ime -n 96 -ranks 24 -trace t.json -metrics m.prom
//
// -trace writes a Perfetto/Chrome trace (load it at ui.perfetto.dev;
// analyse it with cmd/tracestats) and -metrics a Prometheus text
// exposition. Neither changes the simulated energies or durations.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/perfmodel"
)

func main() {
	algName := flag.String("alg", "ime", "solver: ime or scalapack")
	n := flag.Int("n", 384, "system order")
	ranks := flag.Int("ranks", 48, "MPI ranks (multiple of 48 for full-load, 24 for half-load)")
	placement := flag.String("placement", "auto", "node placement: auto, full, half1, half2")
	seed := flag.Int64("seed", 1, "input generator seed")
	nb := flag.Int("nb", 16, "ScaLAPACK block size")
	outdir := flag.String("outdir", ".", "directory for per-processor energy files")
	tracePath := flag.String("trace", "", "write a Perfetto/Chrome trace JSON to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus text exposition to this file")
	flag.Parse()

	if err := run(os.Stdout, *algName, *n, *ranks, *placement, *seed, *nb, *outdir, *tracePath, *metricsPath); err != nil {
		fmt.Fprintf(os.Stderr, "energymon: %v\n", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, algName string, n, ranks int, placement string, seed int64, nb int, outdir, tracePath, metricsPath string) error {
	var alg perfmodel.Algorithm
	switch algName {
	case "ime":
		alg = perfmodel.IMe
	case "scalapack":
		alg = perfmodel.ScaLAPACK
	default:
		return fmt.Errorf("unknown algorithm %q", algName)
	}
	spec := cluster.MarconiA3()
	var pl cluster.Placement
	switch placement {
	case "auto":
		// Prefer full-load; fall back to half-load-2-sockets when the rank
		// count only fills one socket per node.
		switch {
		case ranks%spec.CoresPerNode() == 0:
			pl = cluster.FullLoad
		case ranks%spec.CoresPerSocket == 0:
			pl = cluster.HalfLoadTwoSockets
		default:
			return fmt.Errorf("no placement fits %d ranks (need a multiple of %d or %d); pass -placement explicitly",
				ranks, spec.CoresPerNode(), spec.CoresPerSocket)
		}
	case "full":
		pl = cluster.FullLoad
	case "half1":
		pl = cluster.HalfLoadOneSocket
	case "half2":
		pl = cluster.HalfLoadTwoSockets
	default:
		return fmt.Errorf("unknown placement %q", placement)
	}

	// Every file is written after the run: a failed run leaves none behind.
	var inst core.Instrumentation
	var trace, metrics bytes.Buffer
	if tracePath != "" {
		inst.TraceW = &trace
	}
	if metricsPath != "" {
		inst.MetricsW = &metrics
	}
	e := core.Experiment{
		Algorithm: alg, N: n, Ranks: ranks, Placement: pl, Seed: seed,
		Phase: core.PhaseCompute, BlockSize: nb,
	}
	m, reports, st, err := core.RunMonitoredInstrumented(e, inst)
	if err != nil {
		return err
	}
	if m.Residual > 1e-9 {
		return fmt.Errorf("solution residual %g too large", m.Residual)
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}

	for i := range reports {
		path, err := monitor.WriteNodeReport(outdir, &reports[i])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "node %d: %.3f J over %.6f s (%.1f W) → %s\n",
			reports[i].Node, reports[i].TotalJoules(), reports[i].ElapsedS,
			reports[i].AvgPowerW(), path); err != nil {
			return err
		}
	}
	sum := monitor.Summarize(reports)
	path, err := monitor.WriteRunSummary(outdir, sum)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "run: %s %s on %s — %.3f J, %.6f s, avg %.1f W across %d nodes → %s\n",
		alg, fmt.Sprintf("n=%d", n), m.Config.Label(), sum.TotalJ, sum.DurationS, sum.AvgPowerW(), sum.Nodes, path); err != nil {
		return err
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, trace.Bytes(), 0o644); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "trace: %s (critical path %.6f s of %.6f s makespan)\n",
			tracePath, st.CriticalS, st.Makespan); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		if err := os.WriteFile(metricsPath, metrics.Bytes(), 0o644); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "metrics: %s\n", metricsPath); err != nil {
			return err
		}
	}
	return nil
}
