package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/sparse"
	"repro/internal/store"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime makes sync.Pool drop entries: encoding/json's pooled encoder
// state then allocates by design and allocation budgets do not apply.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestCellAllocationBudget bounds what one evaluation through the runner
// asks of the allocator. The campaign benchmark's allocation bound works
// out to a third of an allocation per evaluation, so these are exact
// budgets, not ceilings with slack. A warm lookup, dense or sparse, CPU or
// accelerated, is zero: the energies are scanned into the measurement's
// array, the identity bytes live in a recycled buffer and are probed in
// the store's identity index with no digest, the model half they embed
// is a stack value (or rendered once per cell set), the engine name is a
// constant, and the Config points at a machine spec built once. A
// cold cell is two: the miss's key string and the record's log line,
// which the stored identity and payload slice. Through encoding/json a
// lookup is 26.
func TestCellAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	admit := func() error { return nil }
	budget := func(name string, max float64, f func()) {
		t.Helper()
		got := testing.AllocsPerRun(200, f)
		t.Logf("%s: %.0f allocations per evaluation, budget %.0f", name, got, max)
		if got > max {
			t.Errorf("%s is over its allocation budget", name)
		}
	}

	dense := Experiment{Algorithm: perfmodel.ScaLAPACK, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
	prm := perfmodel.Params{Overlap: true}
	if _, _, err := RunAnalyticStored(dense, prm, st); err != nil {
		t.Fatal(err)
	}
	budget("warm LookupAnalyticCell", 0, func() {
		if _, ok, err := LookupAnalyticCell(st, dense, prm); !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	// The campaign's cold sequence: lookup miss → admit → model → append.
	// A fresh noise seed per run makes every evaluation a miss.
	cold := prm
	cold.NodeVariability = 0.05
	budget("cold analytic cell", 2, func() {
		cold.NoiseSeed++
		if _, computed, err := Run(st, AnalyticCell{E: dense, Params: cold}, admit); !computed || err != nil {
			t.Fatalf("computed=%v err=%v", computed, err)
		}
	})
	// No store is plain compute, which allocates nothing, for one cell or
	// the two of a recommendation: the identity is never built, and the
	// Config points at the shared machine spec. The serving benchmark runs
	// storeless.
	budget("storeless analytic cell", 0, func() {
		if _, _, err := RunAnalyticStored(dense, prm, nil); err != nil {
			t.Fatal(err)
		}
	})
	budget("storeless Recommend", 0, func() {
		if _, err := Recommend(dense.N, dense.Ranks, dense.Placement, MinEnergy, prm); err != nil {
			t.Fatal(err)
		}
	})

	// An accelerated cell's identity pins the accelerator profile and its
	// Config the accelerated machine: both are the one built at start-up,
	// so it costs what a CPU cell does.
	for _, c := range []struct {
		dev  cluster.Device
		warm float64
	}{{cluster.DeviceCPU, 0}, {cluster.DeviceAccel, 0}} {
		cell := SparseAnalyticCell{E: SparseExperiment{
			Algorithm: sparse.CG, Kind: sparse.Banded, N: 16384, Ranks: SparseSweepRanks,
			Placement: cluster.FullLoad, Device: c.dev, Band: 256, Cond: 1e2, Seed: SparseSweepSeed,
		}}
		if _, _, err := Run(st, cell, nil); err != nil {
			t.Fatal(err)
		}
		budget("warm sparse lookup, "+c.dev.String(), c.warm, func() {
			if _, ok, err := lookup(st, cell); !ok || err != nil {
				t.Fatalf("ok=%v err=%v", ok, err)
			}
		})
	}
}
