package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Golden pinning of what this package writes into the experiment store.
// A record's key is the digest of its identity bytes, so any drift in an
// identity — a renamed field, a reordered one, a default resolved
// differently — silently orphans every record stored before it. The file
// holds one full record line (key, kind, identity bytes, result bytes)
// per kind of cell, exactly as the store's log receives it.
//
// Regenerate with:
//
//	go test ./internal/core -run TestStoreRecordBytesPinned -update
//
// and only together with a deliberate, version-stamped identity change.
//
// The analytic and the monitored cells run their engines: a counter read
// is a function of virtual time (monitor.alignNode), so the quantised
// energies are the same on every run. The resilience cell does not: its
// joules are the un-quantised sums the nodes accumulate in goroutine
// arrival order, which moves their last bits from run to run (ROADMAP
// item 5a), so it goes through the runner with the engine replaced by
// the measurement the golden was generated from — identity, key and
// payload encoding are what is pinned there, not the simulator.

var updateStoreRecords = flag.Bool("update", false, "rewrite testdata/store_records.golden from the current code")

const storeRecordsGolden = "testdata/store_records.golden"

type recordedResilience struct {
	resilienceCell
	rm ResilientMeasurement
}

func (c recordedResilience) compute() (ResilientMeasurement, error) { return c.rm, nil }

func TestStoreRecordBytesPinned(t *testing.T) {
	dense := Experiment{Algorithm: perfmodel.ScaLAPACK, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
	blocked := dense
	blocked.BlockSize = 32
	monitored := Experiment{Algorithm: perfmodel.IMe, N: 96, Ranks: 24,
		Placement: cluster.HalfLoadTwoSockets, Seed: 3, BlockSize: 8}
	compute := monitored
	compute.Phase = PhaseCompute
	resilient := Experiment{Algorithm: perfmodel.ScaLAPACK, N: 96, Ranks: 24,
		Placement: cluster.HalfLoadOneSocket, Seed: 7, BlockSize: 8}
	banded := SparseExperiment{Algorithm: sparse.CG, Kind: sparse.Banded, N: 16384, Ranks: SparseSweepRanks,
		Placement: cluster.FullLoad, Device: cluster.DeviceCPU, Band: 256, Cond: 1e2, Seed: SparseSweepSeed}
	random := SparseExperiment{Algorithm: sparse.BiCGSTAB, Kind: sparse.Random, N: 131072, Ranks: SparseSweepRanks,
		Placement: cluster.FullLoad, Device: cluster.DeviceAccel, Density: 1e-4, Cond: 1e4, Seed: SparseSweepSeed}

	cells := []struct {
		name string
		run  func(st *store.Store) error
	}{
		{"analytic, default params", func(st *store.Store) error {
			_, _, err := RunAnalyticStored(dense, perfmodel.Params{}, st)
			return err
		}},
		{"analytic, experiment block size override", func(st *store.Store) error {
			_, _, err := RunAnalyticStored(blocked, perfmodel.Params{Overlap: true}, st)
			return err
		}},
		{"analytic, power cap", func(st *store.Store) error {
			_, _, err := RunAnalyticStored(dense, perfmodel.Params{Overlap: true, PowerCapW: 110}, st)
			return err
		}},
		{"analytic, noise-seeded repetition", func(st *store.Store) error {
			_, _, err := RunAnalyticStored(dense, perfmodel.Params{Overlap: true, NodeVariability: 0.05, NoiseSeed: 3}, st)
			return err
		}},
		{"monitored, general phase", func(st *store.Store) error {
			_, _, err := Run(st, MonitoredCell(monitored), nil)
			return err
		}},
		{"monitored, compute phase", func(st *store.Store) error {
			_, _, err := Run(st, MonitoredCell(compute), nil)
			return err
		}},
		{"resilience", func(st *store.Store) error {
			_, _, err := Run(st, recordedResilience{resilienceCell{resilient, ResilienceOptions{
				MTBF: 2e-4, Seed: 5, Detect: 1e-5,
				Storage: ckpt.CostModel{BandwidthBps: 2e9, LatencyS: 1e-6},
			}}, ResilientMeasurement{
				BaselineDurationS: 0.0005641595294117614, BaselineJ: 0.13335797775811906,
				DurationS: 0.0008770237679988496, TotalJ: 0.20162687785865402,
				Crashes: 3, Restarts: 3, CheckpointWrites: 134,
				RecoveryJ: 0.06826890010053496, Residual: 2.1531529348767081e-16,
			}}, nil)
			return err
		}},
		{"sparse analytic, cpu", func(st *store.Store) error {
			_, _, err := Run(st, SparseAnalyticCell{E: banded}, nil)
			return err
		}},
		{"sparse analytic, accel", func(st *store.Store) error {
			_, _, err := Run(st, SparseAnalyticCell{E: random}, nil)
			return err
		}},
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if err := c.run(st); err != nil {
			st.Close()
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.Len() != i+1 {
			st.Close()
			t.Fatalf("%s: store holds %d records after it, want %d", c.name, st.Len(), i+1)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "records.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if *updateStoreRecords {
		if err := os.WriteFile(storeRecordsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", storeRecordsGolden, len(cells))
		return
	}
	want, err := os.ReadFile(storeRecordsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	wantLines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(gotLines) != len(cells) || len(wantLines) != len(cells) {
		t.Fatalf("%d lines written, %d pinned, want %d of each", len(gotLines), len(wantLines), len(cells))
	}
	for i, c := range cells {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("%s: record bytes moved\n got %s\nwant %s", c.name, gotLines[i], wantLines[i])
		}
	}
}
