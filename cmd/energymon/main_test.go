package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current run")

// TestGolden runs both solvers at n=96 on 24 half-load-2-sockets ranks.
// The run summary must read the joules and duration of core's
// compute-phase monitored run of the same experiment, and the stdout and
// every energy file are pinned byte for byte. The IMe run also streams
// the trace and metrics, which must parse and carry the RAPL counters.
func TestGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		name string
		alg  perfmodel.Algorithm
	}{{"ime", perfmodel.IMe}, {"scalapack", perfmodel.ScaLAPACK}} {
		out, art := t.TempDir(), t.TempDir()
		tracePath, metricsPath := "", ""
		if tc.alg == perfmodel.IMe {
			tracePath, metricsPath = filepath.Join(art, "trace.json"), filepath.Join(art, "metrics.prom")
		}
		var stdout bytes.Buffer
		if err := run(&stdout, tc.name, 96, 24, "half2", 1, 16, out, tracePath, metricsPath); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		want, err := core.RunMonitored(core.Experiment{
			Algorithm: tc.alg, N: 96, Ranks: 24, Placement: cluster.HalfLoadTwoSockets,
			Seed: 1, Phase: core.PhaseCompute, BlockSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		summary, err := os.ReadFile(filepath.Join(out, "run_summary.txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("total_J: %.6f\n", want.TotalJ),
			fmt.Sprintf("duration_s: %.9f\n", want.DurationS),
		} {
			if !strings.Contains(string(summary), line) {
				t.Errorf("%s: run_summary.txt lacks core's %q:\n%s", tc.name, line, summary)
			}
		}

		if tracePath != "" {
			f, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			spans, err := mpi.ReadChromeTrace(f)
			f.Close()
			if err != nil || len(spans) == 0 {
				t.Errorf("%s: trace has %d spans, err %v", tc.name, len(spans), err)
			}
			metrics, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(metrics, []byte("\nrapl_energy_joules_total")) {
				t.Errorf("%s: metrics carry no rapl_energy_joules_total series", tc.name)
			}
		}

		masked := strings.NewReplacer(out, "OUT", art, "ART").Replace(stdout.String())
		fmt.Fprintf(&b, "== -alg %s -n 96 -ranks 24 -placement half2\n%s", tc.name, masked)
		entries, err := os.ReadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			body, err := os.ReadFile(filepath.Join(out, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "-- OUT/%s\n%s", e.Name(), body)
		}
	}

	const path = "testdata/golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("output differs from %s (rerun with -update after a deliberate change)\n--- got\n%s--- want\n%s", path, got, want)
	}
}
