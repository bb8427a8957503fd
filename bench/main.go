// Command bench is the repository's one benchmark suite: five seeded,
// self-verifying workloads, six end-to-end metrics from an untraced run,
// and per-layer metrics from a separate traced run. README.md beside this
// file defines every name; BENCHMARK.json at the repository root declares
// them to the acceptance protocol, which runs
//
//	bash bench/run.sh --workload W --seed S --seconds T --trace 0|1
//
// and reads the last line of standard output. Without -workload the
// command runs all five in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// workloads lists the suite in run order.
var workloads = []*workload{engine144, kernelDense, sparseKrylov, serveMix, campaignPaper}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		cfg       config
		name      = flag.String("workload", "", "run one workload (default: all five in turn)")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "A/A: run the suite twice on this build and compare the two sets")
		runs      = flag.Int("runs", 5, "with -selfcheck, runs per workload in each set (seeds seed, seed+1, …)")
		writeRefs = flag.Bool("write-fingerprints", false, "rewrite "+referenceFile+" from this build and exit")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time per workload")
	flag.BoolVar(&cfg.smoke, "smoke", false, "two ops per workload and one set-up: a wiring check, not a measurement")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for scratch stores and trace.json")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{wl}
	}
	dog = startWatchdog()

	var err error
	switch {
	case *writeRefs:
		err = writeFingerprints(cfg)
	case *selfcheck:
		err = selfCheck(selected, cfg, *runs)
	default:
		printEnvironment(cfg)
		ok := true
		for _, wl := range selected {
			var line resultLine
			if *trace != 0 {
				line = tracedRun(wl, cfg)
			} else {
				line = untracedRun(wl, cfg)
			}
			ok = ok && line.Correct
			out, _ := json.Marshal(line)
			fmt.Printf("%s\n", out)
		}
		if !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// untracedRun measures one workload, checks its reference fingerprint
// and prints the end-to-end metrics.
func untracedRun(wl *workload, cfg config) resultLine {
	out := runUntraced(wl, cfg)
	if out.err != nil {
		fmt.Printf("%s: FAILED: %v\n", wl.name, out.err)
		return resultLine{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	}
	refErr := checkReference(wl, cfg)

	smp := &out.smp
	fmt.Printf("%s: %d ops in %.2f s over %d rounds, %d failed; %d set-ups\n",
		wl.name, smp.attempted, smp.wall.Seconds(), len(out.calibMS), smp.failed, len(out.setupS))
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(out.setupS))
		case "op_p90_ms":
			note = fmt.Sprintf("%d samples, %d beyond", len(smp.opMS), samplesBeyond(len(smp.opMS), 0.9))
			if samplesBeyond(len(smp.opMS), 0.9) < minBeyond {
				note += " (fewer than 10: read it as a maximum, not a percentile)"
			}
		case "op_p50_ms", "ops_per_s", "allocs_per_op", "alloc_mb_per_op":
			note = fmt.Sprintf("%d samples", len(smp.opMS))
		}
		fmt.Printf("  %-18s %14.6g %-6s bound %4.0f%%  %s\n", d.name, out.values[d.name], d.unit, 100*d.bound, note)
	}
	if q := tailPercentile(len(smp.opMS)); q > 0.9 {
		fmt.Printf("  %-18s %14.6g ms     highest percentile with ≥%d samples beyond it\n",
			fmt.Sprintf("op_p%g_ms", 100*q), percentile(sortedCopy(smp.opMS), q), minBeyond)
	}
	fmt.Printf("  calibration loop   %14.6g ratio  max/min over the rounds (the machine, not the code)\n", spread(out.calibMS))
	fmt.Printf("  per round          calibration ms %.4g; op_p50_ms %.5g\n", out.calibMS, out.roundP50)
	fmt.Printf("  fingerprint seed=%d %s\n", cfg.seed, out.fp)
	for _, f := range smp.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if refErr != nil {
		fmt.Printf("  FAILED reference fingerprint: %v\n", refErr)
	}

	metrics, missing := report(endToEnd, out.values)
	return resultLine{
		Correct:   smp.failed == 0 && refErr == nil && len(missing) == 0 && smp.attempted > 0,
		Attempted: max(smp.attempted, 1),
		Failed:    smp.failed,
		Metrics:   metrics,
	}
}

// referenceRun executes the first chunk of a workload at referenceSeed
// and returns its simulated statistics.
func referenceRun(wl *workload, cfg config) (fingerprint, error) {
	inst, err := wl.setup(referenceSeed, cfg.outDir)
	if err != nil {
		return fingerprint{}, err
	}
	defer inst.close()
	if err := runChunk(wl, inst, 0, wl.chunk, nil, nil); err != nil {
		return fingerprint{}, err
	}
	return inst.fingerprint(), nil
}

// checkReference compares this build's simulated statistics at
// referenceSeed with the checked-in ones: a change that only speeds up
// the host must leave them identical (joules within jouleTolerance).
func checkReference(wl *workload, cfg config) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	want, ok := refs[wl.name]
	if !ok {
		return fmt.Errorf("%s has no entry for %s", referenceFile, wl.name)
	}
	got, err := referenceRun(wl, cfg)
	if err != nil {
		return err
	}
	if d := want.diff(got); len(d) > 0 {
		return fmt.Errorf("simulated statistics at seed %d moved: %s", referenceSeed, strings.Join(d, "; "))
	}
	return nil
}

func writeFingerprints(cfg config) error {
	refs := make(map[string]fingerprint)
	for _, wl := range workloads {
		fp, err := referenceRun(wl, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		refs[wl.name] = fp
	}
	return writeReferences(refs)
}
