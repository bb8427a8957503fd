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
// budgets, not ceilings with slack: the warm numbers are what the
// per-workload lookups cost before the runner replaced them, and the cold
// one holds "the identity is marshalled once per evaluation" in place — it
// was 34 when a campaign cell looked up, looked up again inside the run,
// and marshalled a third time to build the record.
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
	budget("warm LookupAnalyticCell", 26, func() {
		if _, ok, err := LookupAnalyticCell(st, dense, prm); !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	// The campaign's cold sequence: lookup miss → admit → model → append.
	// A fresh noise seed per run makes every evaluation a miss.
	cold := prm
	cold.NodeVariability = 0.05
	budget("cold analytic cell", 26, func() {
		cold.NoiseSeed++
		if _, computed, err := Run(st, AnalyticCell{dense, cold}, admit); !computed || err != nil {
			t.Fatalf("computed=%v err=%v", computed, err)
		}
	})
	// No store is plain compute — the model's own three allocations, six
	// for the two cells of a recommendation — because the identity is never
	// built: the serving benchmark runs storeless.
	budget("storeless analytic cell", 3, func() {
		if _, _, err := RunAnalyticStored(dense, prm, nil); err != nil {
			t.Fatal(err)
		}
	})
	budget("storeless Recommend", 6, func() {
		if _, err := Recommend(dense.N, dense.Ranks, dense.Placement, MinEnergy, prm); err != nil {
			t.Fatal(err)
		}
	})

	// An accelerated cell carries the accelerator profile in its identity
	// and a fifth energy domain in its result.
	for _, c := range []struct {
		dev  cluster.Device
		warm float64
	}{{cluster.DeviceCPU, 27}, {cluster.DeviceAccel, 32}} {
		cell := SparseAnalyticCell{E: SparseExperiment{
			Algorithm: sparse.CG, Kind: sparse.Banded, N: 16384, Ranks: SparseSweepRanks,
			Placement: cluster.FullLoad, Device: c.dev, Band: 256, Cond: 1e2, Seed: SparseSweepSeed,
		}}
		if _, _, err := Run(st, cell, nil); err != nil {
			t.Fatal(err)
		}
		budget("warm sparse lookup, "+c.dev.String(), c.warm, func() {
			if _, ok, err := Lookup(st, cell); !ok || err != nil {
				t.Fatalf("ok=%v err=%v", ok, err)
			}
		})
	}
}
