// Command campaign orchestrates experiment campaigns over the
// content-addressed store: staged cell sets (the paper grid, scaling
// sweeps, resilience studies) run across the worker pool with
// store-backed memoization — a cell already in the store is never
// computed again, and an interrupted campaign resumes with zero lost
// work.
//
// Usage:
//
//	campaign -list                               # show declared campaigns
//	campaign -store .store -run paper            # compute missing cells
//	campaign -store .store -run paper -j 8       # same, 8 workers
//	campaign -store .store -run paper -summary s.json
//	campaign -store .store -artifacts out/       # emit figure tables from the store
//	campaign -store .store -experiments EXPERIMENTS.md
//
// Artifacts are emitted strictly from the store (a missing cell is an
// error, not a recompute, and emission never writes to the store) with
// provenance headers naming the store digest and record count.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/store"
)

func main() {
	storeDir := flag.String("store", ".store", "experiment store directory (created if missing)")
	run := flag.String("run", "", "campaign to run: paper or scaling")
	workers := flag.Int("j", 1, "concurrent cell evaluations (0 = GOMAXPROCS); results are identical for every value")
	maxCells := flag.Int("max-cells", 0, "stop after computing this many cells (0 = no budget) — interruption drill; resume by re-running")
	summaryPath := flag.String("summary", "", "write the run summary JSON here")
	artifactsDir := flag.String("artifacts", "", "emit every paper artifact from the store into this directory")
	experimentsPath := flag.String("experiments", "", "regenerate EXPERIMENTS.md from the store at this path")
	list := flag.Bool("list", false, "list declared campaigns and exit")
	flag.Parse()

	if err := mainErr(os.Stdout, *storeDir, *run, *workers, *maxCells,
		*summaryPath, *artifactsDir, *experimentsPath, *list); err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		if errors.Is(err, campaign.ErrInterrupted) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func mainErr(w io.Writer, storeDir, run string, workers, maxCells int,
	summaryPath, artifactsDir, experimentsPath string, list bool) error {

	if list {
		return printList(w)
	}
	if run == "" && artifactsDir == "" && experimentsPath == "" {
		return fmt.Errorf("nothing to do: pass -run, -artifacts, -experiments or -list")
	}

	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	if n := st.Corrupt(); n > 0 {
		if _, err := fmt.Fprintf(w, "store: skipped %d torn or mis-keyed line(s); the affected cells will be recomputed\n", n); err != nil {
			return err
		}
	}

	var runErr error
	if run != "" {
		c, err := campaign.Lookup(run)
		if err != nil {
			return err
		}
		sum, err := campaign.Run(c, st, campaign.RunOptions{Workers: workers, MaxCells: maxCells})
		if err != nil && !errors.Is(err, campaign.ErrInterrupted) {
			return err
		}
		runErr = err
		if err := printSummary(w, sum); err != nil {
			return err
		}
		if summaryPath != "" {
			if err := writeJSON(summaryPath, sum); err != nil {
				return err
			}
		}
	}
	if artifactsDir != "" {
		names, err := campaign.EmitArtifacts(st, artifactsDir)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "emitted %d artifacts to %s (%s)\n", len(names), artifactsDir, campaign.Provenance(st)); err != nil {
			return err
		}
	}
	if experimentsPath != "" {
		if err := campaign.EmitExperiments(st, experimentsPath); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "regenerated %s from the store\n", experimentsPath); err != nil {
			return err
		}
	}
	return runErr
}

// printList writes the registry listing to w in one write, so a failed
// write is the error returned.
func printList(w io.Writer) error {
	var b bytes.Buffer
	reg := campaign.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := reg[name]
		fmt.Fprintf(&b, "%-10s %4d cells  %s\n", c.Name, c.Cells(), c.Description)
		for _, s := range c.Stages {
			fmt.Fprintf(&b, "    %-20s %4d cells\n", s.Name, s.Cells)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// printSummary writes the run summary to w in one write, so a failed
// write is the error returned.
func printSummary(w io.Writer, sum campaign.Summary) error {
	var b bytes.Buffer
	for _, s := range sum.Stages {
		fmt.Fprintf(&b, "stage %-20s computed %4d  hits %4d\n", s.Name, s.Computed, s.Hits)
	}
	fmt.Fprintf(&b, "campaign %s: computed %d, hits %d of %d cells in %.3fs; store has %d records (digest %.12s…)\n",
		sum.Campaign, sum.ComputedTotal, sum.HitsTotal, sum.CellsTotal, sum.RunWallS,
		sum.StoreRecords, sum.StoreDigest)
	if sum.Interrupted {
		fmt.Fprintln(&b, "interrupted by cell budget — re-run to resume with zero lost work")
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
