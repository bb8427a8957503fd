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
// budgets, not ceilings with slack. A warm lookup is eight: the key string,
// the scanned name → joules map and the restored domain → joules map (two
// each), the engine name, the machine spec the Config points at, and the
// model half of the identity (AnalyticCellIdentity hands out a pointer).
// The identity bytes themselves live in a recycled buffer and cost nothing
// until a miss copies them, with the payload, into the record: a cold
// cell is eleven, the model's three included. Through encoding/json a
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
	budget("warm LookupAnalyticCell", 8, func() {
		if _, ok, err := LookupAnalyticCell(st, dense, prm); !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	// The campaign's cold sequence: lookup miss → admit → model → append.
	// A fresh noise seed per run makes every evaluation a miss.
	cold := prm
	cold.NodeVariability = 0.05
	budget("cold analytic cell", 11, func() {
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

	// An accelerated cell builds the accelerated machine twice, spec and
	// accelerator profile each time — for the profile its identity pins and
	// for the Config it restores — where a CPU cell builds the plain spec
	// once.
	for _, c := range []struct {
		dev  cluster.Device
		warm float64
	}{{cluster.DeviceCPU, 8}, {cluster.DeviceAccel, 11}} {
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
