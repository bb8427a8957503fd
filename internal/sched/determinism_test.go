package sched

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata golden files")

// goldenWorkload is the reference fleet run the golden files pin: 48
// synthetic jobs on 128 nodes under a binding power budget with faults.
func goldenWorkload() (Config, Workload) {
	cfg := Config{
		Nodes:        128,
		PowerBudgetW: 30000,
		MTBF:         40,
		FaultSeed:    7,
		Trace:        true,
	}
	return cfg, Synthetic(2026, 48)
}

func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func traceBytes(t *testing.T, o *Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFleetReport pins the canonical report and timeline bytes of
// the reference run. Any change to scheduling order, accounting, float
// summation order or JSON rendering shows up as a diff here.
func TestGoldenFleetReport(t *testing.T) {
	cfg, w := goldenWorkload()
	o, err := Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	repB := marshalReport(t, o.Report)
	trB := traceBytes(t, o)

	repPath := filepath.Join("testdata", "fleet_report.golden.json")
	trPath := filepath.Join("testdata", "fleet_trace.golden.json")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(repPath, repB, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trPath, trB, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantRep, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatalf("%v (run with -update-goldens to create)", err)
	}
	if !bytes.Equal(repB, wantRep) {
		t.Errorf("report drifted from golden %s (digest %s); run -update-goldens if intended",
			repPath, o.Report.ScheduleDigest)
	}
	wantTr, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatalf("%v (run with -update-goldens to create)", err)
	}
	if !bytes.Equal(trB, wantTr) {
		t.Errorf("fleet timeline drifted from golden %s", trPath)
	}
}

// TestDeterminismAcrossWorkers: same seed and workload must produce
// byte-identical reports and timelines at every worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	cfg, w := goldenWorkload()
	cfg.Workers = 1
	ref, err := Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	refRep := marshalReport(t, ref.Report)
	refTr := traceBytes(t, ref)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		o, err := Simulate(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if o.Report.ScheduleDigest != ref.Report.ScheduleDigest {
			t.Fatalf("-j %d digest %s != -j 1 digest %s", workers,
				o.Report.ScheduleDigest, ref.Report.ScheduleDigest)
		}
		if !bytes.Equal(marshalReport(t, o.Report), refRep) {
			t.Fatalf("-j %d report bytes differ from -j 1", workers)
		}
		if !bytes.Equal(traceBytes(t, o), refTr) {
			t.Fatalf("-j %d timeline bytes differ from -j 1", workers)
		}
		// Per-job energies agree to well under 1e-9 J (they are the same
		// floats, but assert the contract the issue states).
		for i := range o.Report.Jobs {
			d := o.Report.Jobs[i].EnergyJ - ref.Report.Jobs[i].EnergyJ
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("job %d energy differs by %g J", i, d)
			}
		}
	}
}

// TestDeterminismAcrossStoreRestart: a fleet resuming predictions from a
// warm experiment store produces byte-identical artifacts, computes
// nothing, and the store itself dedupes (same record count after).
func TestDeterminismAcrossStoreRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(filepath.Join(dir, "fleet.store"))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg, w := goldenWorkload()
	cfg.Workers = 1 // store appends happen on the worker pool; keep the cold pass serial

	cold := open()
	cfg.Store = cold
	first, err := Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if first.StoreComputed == 0 {
		t.Fatal("cold run computed nothing through the store")
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := open()
	defer warm.Close()
	cfg.Store = warm
	cfg.Workers = 8 // resumed run may be parallel; results must not move
	second, err := Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if second.StoreComputed != 0 {
		t.Fatalf("warm run recomputed %d predictions", second.StoreComputed)
	}
	if second.StoreHits == 0 {
		t.Fatal("warm run resolved nothing from the store")
	}
	if !bytes.Equal(marshalReport(t, first.Report), marshalReport(t, second.Report)) {
		t.Fatal("store-resumed report bytes differ from cold run")
	}
	if !bytes.Equal(traceBytes(t, first), traceBytes(t, second)) {
		t.Fatal("store-resumed timeline bytes differ from cold run")
	}

	// No-store control: the store must never change results, only speed.
	cfg.Store = nil
	bare, err := Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, bare.Report), marshalReport(t, first.Report)) {
		t.Fatal("store changed the schedule")
	}
}
