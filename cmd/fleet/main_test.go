package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

// fleetRun runs the command on a 16-job synthetic workload over 48 nodes.
func fleetRun(outPath, tracePath string) error {
	return run("", 16, 1, 48, 0, 0, 0, "energy-aware", 1, "", outPath, tracePath)
}

func TestRunWritesReportAndTrace(t *testing.T) {
	dir := t.TempDir()
	out, trace := filepath.Join(dir, "fleet.json"), filepath.Join(dir, "fleet.trace.json")
	if err := fleetRun(out, trace); err != nil {
		t.Fatal(err)
	}
	o, err := sched.Simulate(sched.Config{Nodes: 48, Policy: sched.EnergyAware, Workers: 1}, sched.Synthetic(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("report file (err %v) is not the simulation's report:\n%s\nwant\n%s", err, got, want)
	}
	if info, err := os.Stat(trace); err != nil || info.Size() == 0 {
		t.Fatalf("trace file: %v, %v", info, err)
	}
}

func TestRunReportWriteFailureIsAnError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	if err := fleetRun("/dev/full", ""); err == nil {
		t.Fatal("writing the report to /dev/full returned no error")
	}
}

func TestRunUncreatableTraceIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := fleetRun(filepath.Join(dir, "fleet.json"), filepath.Join(dir, "missing", "fleet.trace.json")); err == nil {
		t.Fatal("an uncreatable -trace path returned no error")
	}
}
