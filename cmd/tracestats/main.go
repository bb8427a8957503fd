// Command tracestats analyses a trace recorded by the simulated MPI
// runtime (energymon -trace, or mpi.World.WriteChromeTrace): it
// reports each rank's compute/communication/wait breakdown and the
// critical path through the virtual-time DAG — the chain of compute spans
// and matched send→recv pairs that bounds the makespan.
//
// -parse-only validates that a file is well-formed Perfetto/Chrome trace
// JSON and counts its spans without the MPI rank analysis; advisord's
// request traces (from /debug/trace/{id}) mix serving stages with
// modelled solver spans and have no send/recv pairs to critical-path.
//
// Usage:
//
//	tracestats trace.json
//	tracestats -csv trace.json
//	tracestats -parse-only trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mpi"
)

func main() {
	csv := flag.Bool("csv", false, "emit the per-rank table as CSV instead of aligned text")
	parseOnly := flag.Bool("parse-only", false, "validate the trace file and report the span count, skipping rank analysis")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestats [-csv] [-parse-only] <trace.json>")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *csv, *parseOnly); err != nil {
		fmt.Fprintf(os.Stderr, "tracestats: %v\n", err)
		os.Exit(1)
	}
}

// run analyses the trace at path and writes the chosen report to out; a
// failed write is an error, so the command does not exit 0 on a full disk.
func run(out io.Writer, path string, csv, parseOnly bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := mpi.ReadChromeTrace(f)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if parseOnly {
		if len(spans) == 0 {
			return fmt.Errorf("%s: no duration spans", path)
		}
		_, err := fmt.Fprintf(out, "%s: valid trace, %d spans\n", path, len(spans))
		return err
	}
	st, err := mpi.AnalyzeSpans(spans)
	if err != nil {
		return err
	}
	if csv {
		return st.WriteCSV(out)
	}
	return st.WriteReport(out)
}
