// Command lsbench regenerates the paper's evaluation artifacts: Table 1
// and Figures 3–7, plus the §5.3 socket breakdown and the §2.1 message
// accounting. Results come from the analytic engine calibrated and
// cross-checked against the executable simulated cluster.
//
// Usage:
//
//	lsbench -figure all            # every table and figure as text
//	lsbench -figure all -j 8       # same output, 8 artifact builders at once
//	lsbench -figure 5 -format csv  # one figure as CSV
//	lsbench -figure 4 -cap 110     # reproduce under a 110 W package cap
//	lsbench -figure all -store .store  # memoize cells in the experiment store
//
// Artifacts are independent experiment cells, so -j N builds them
// concurrently under one worker budget; emission stays in the canonical
// order, making the output byte-identical to a serial run for every N.
//
// A monitored run's trace and metrics come from cmd/energymon (-trace,
// -metrics); cmd/tracestats analyses the trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/store"
)

func main() {
	figure := flag.String("figure", "all", "artifact: table1, 3, 4, 5, 6, 7, sockets, messages, ablation, blocksize, slurm, repetitions, breakdown, sparse, all")
	format := flag.String("format", "table", "output format: table, csv or markdown")
	noOverlap := flag.Bool("no-overlap", false, "disable communication/computation overlap in the model")
	capW := flag.Float64("cap", 0, "RAPL package power cap in watts (0 = uncapped)")
	nb := flag.Int("nb", 0, "ScaLAPACK block size (default 64)")
	outdir := flag.String("out", "", "also store each artifact as a file under this directory")
	workers := flag.Int("j", 1, "concurrent artifact builders (0 = GOMAXPROCS); output is identical for every value")
	storeDir := flag.String("store", "", "experiment store directory: reuse stored cells and persist computed ones (output is identical with or without)")
	faults := flag.Bool("faults", false, "additionally build the resilience artifact: both solvers under a seed-driven crash schedule")
	mtbf := flag.Float64("mtbf", 0, "with -faults: mean time between rank crashes in virtual seconds (0 = sweep around the fault-free makespan)")
	seed := flag.Int64("seed", 5, "with -faults: crash-schedule seed")
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "lsbench: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
	}
	if err := run(os.Stdout, *figure, *format, !*noOverlap, *capW, *nb, *outdir, *workers,
		faultsConfig{enabled: *faults, mtbf: *mtbf, seed: *seed}, st); err != nil {
		fmt.Fprintf(os.Stderr, "lsbench: %v\n", err)
		os.Exit(1)
	}
}

// faultsConfig carries the resilience artifact's flags. The artifact is
// strictly opt-in: without -faults the output of every -figure value is
// byte-identical to earlier releases.
type faultsConfig struct {
	enabled bool
	mtbf    float64
	seed    int64
}

// run builds and emits the requested artifacts. st, when non-nil, is the
// content-addressed experiment store the cell-set artifacts (sweeps,
// repetitions, resilience) read through and persist to; the emitted
// bytes are identical with or without it — the store only removes
// recomputation.
func run(w io.Writer, figure, format string, overlap bool, capW float64, nb int, outdir string, workers int, faults faultsConfig, st *store.Store) error {
	runner := grid.New(workers)
	// One set of model parameters prices every dense artifact.
	prm := perfmodel.Params{Overlap: overlap, PowerCapW: capW, BlockSize: nb}
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	}
	emitOne := func(t *report.Table, w io.Writer, format string) error {
		switch format {
		case "csv":
			return t.CSV(w)
		case "markdown":
			return t.Markdown(w)
		default:
			return t.Render(w)
		}
	}
	artifactIdx := 0
	emit := func(t *report.Table) error {
		if err := emitOne(t, w, format); err != nil {
			return err
		}
		if outdir != "" {
			// The testing framework "automatically collects and stores
			// results in a human-readable format" (§4): one file per
			// artifact, in every format.
			for _, f := range []struct{ ext, format string }{
				{"txt", "table"}, {"csv", "csv"}, {"md", "markdown"},
			} {
				name := fmt.Sprintf("artifact%02d.%s", artifactIdx, f.ext)
				file, err := os.Create(filepath.Join(outdir, name))
				if err != nil {
					return err
				}
				if err := emitOne(t, file, f.format); err != nil {
					file.Close()
					return err
				}
				if err := file.Close(); err != nil {
					return err
				}
			}
			artifactIdx++
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	// Every cell set is collected here, before the artifact-level grid.Map
	// below: an artifact closure runs on one of that Map's slots, and a
	// nested Map on the same runner deadlocks at -j 1 (the outer cell holds
	// the only slot the inner acquire waits for).
	ev := &core.Evaluator{Store: st, Runner: runner}
	wants := func(name string) bool { return figure == name || figure == "all" }
	needSweep := figure != "table1" && figure != "messages" &&
		figure != "ablation" && figure != "blocksize" && figure != "slurm" &&
		figure != "repetitions" && figure != "breakdown" && figure != "sparse"
	var sweep *core.Sweep
	if needSweep {
		var err error
		sweep, err = core.SweepCells(core.SweepKeys(), prm).Collect(ev)
		if err != nil {
			return err
		}
	}
	var sparseSweep *core.SparseSweep
	if wants("sparse") && capW == 0 {
		var err error
		sparseSweep, err = core.SparseSweepCells(perfmodel.Params{}).Collect(ev)
		if err != nil {
			return err
		}
	}
	var repetitions *report.Table
	if wants("repetitions") {
		var err error
		repetitions, err = core.RepetitionStudy(prm).Collect(ev)
		if err != nil {
			return err
		}
	}
	var resilience *report.Table
	if faults.enabled && wants("resilience") {
		pts, err := core.ResilienceSweep(faults.mtbf, faults.seed).Collect(ev)
		if err != nil {
			return err
		}
		resilience = core.ResilienceTable(pts)
	}

	artifacts := map[string]func() (*report.Table, error){
		"table1": core.Table1,
		"3":      func() (*report.Table, error) { return sweep.Figure3(), nil },
		"4":      func() (*report.Table, error) { return sweep.Figure4(), nil },
		"5":      func() (*report.Table, error) { return sweep.Figure5(), nil },
		"6":      func() (*report.Table, error) { return sweep.Figure6(), nil },
		"7":      func() (*report.Table, error) { return sweep.Figure7(), nil },
		"sockets": func() (*report.Table, error) {
			return sweep.SocketBreakdown(17280, 144)
		},
		"messages": func() (*report.Table, error) {
			return core.MessageAccounting([][2]int{{48, 4}, {96, 8}, {144, 12}})
		},
		"ablation": func() (*report.Table, error) {
			return core.OverlapAblation([]core.AblationCase{
				{N: 96, Ranks: 4}, {N: 96, Ranks: 8}, {N: 144, Ranks: 12}, {N: 192, Ranks: 16},
			})
		},
		"blocksize": func() (*report.Table, error) {
			return core.BlockSizeAblation(192, 16, []int{4, 8, 16, 32, 48})
		},
		"slurm": func() (*report.Table, error) {
			return core.SlurmLeakStudy(perfmodel.ScaLAPACK, 17280, 144, []float64{0, 0.1, 0.25, 0.5}, prm)
		},
		"breakdown": func() (*report.Table, error) {
			return core.DurationBreakdown(prm)
		},
		"sparse": func() (*report.Table, error) {
			// The sparse model has no cap semantics (memory-bound kernels
			// never hit PL1); every sparse consumer — this artifact, the
			// campaign stage, advisord — models with default params so the
			// cells share one store identity.
			if capW > 0 {
				return nil, fmt.Errorf("the sparse artifact does not support -cap (sparse kernels are not cap-modelled)")
			}
			return sparseSweep.SparseFigure()
		},
		"repetitions": func() (*report.Table, error) { return repetitions, nil },
	}

	if faults.enabled {
		artifacts["resilience"] = func() (*report.Table, error) { return resilience, nil }
	} else if figure == "resilience" {
		return fmt.Errorf("the resilience artifact requires -faults")
	}

	if figure == "all" {
		names := []string{"table1", "3", "4", "5", "6", "7", "sockets", "messages", "ablation", "blocksize", "slurm", "repetitions", "breakdown"}
		if capW == 0 {
			// The sparse artifact has no cap semantics; capped "all" runs
			// keep the dense-only artifact set.
			names = append(names, "sparse")
		}
		if faults.enabled {
			names = append(names, "resilience")
		}
		// Build every artifact concurrently under the worker budget, then
		// emit serially in the canonical order: the output is byte-identical
		// to the serial loop, only the wall time changes.
		tables, err := grid.Map(runner, len(names), func(i int) (*report.Table, error) {
			return artifacts[names[i]]()
		})
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
	build, ok := artifacts[figure]
	if !ok {
		// Enumerate the real artifact set so the error never goes stale as
		// figures are added.
		names := make([]string, 0, len(artifacts)+1)
		for name := range artifacts {
			names = append(names, name)
		}
		sort.Strings(names)
		names = append(names, "all")
		return fmt.Errorf("unknown artifact %q (want one of: %s)", figure, strings.Join(names, ", "))
	}
	t, err := build()
	if err != nil {
		return err
	}
	return emit(t)
}
