package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestAnalyticStoredExactRoundTrip pins the byte-identity contract at
// its root: a warm hit must reconstruct exactly the Measurement the
// cold computation produced — every float64 bit included — because all
// downstream artifacts (figure tables, advisor bodies) are formatted
// from these numbers. Evaluator.Analytic, the path batch callers price
// through, returns what RunAnalyticStored returns on the same cells: the
// same measurement, computed/hit split and error text, which the sweep
// handler wraps once with its own cell name. The sequence repeats a cell
// and puts two noise seeds on one schedule, so the store and the replay
// memo both hit; without a store every cell computes.
func TestAnalyticStoredExactRoundTrip(t *testing.T) {
	dense := Experiment{Algorithm: perfmodel.ScaLAPACK, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
	ime := Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.HalfLoadTwoSockets}
	exact := perfmodel.Params{Overlap: true}
	noisy := func(seed int64) perfmodel.Params { return perfmodel.Params{NodeVariability: 0.05, NoiseSeed: seed} }
	cells := []struct {
		e   Experiment
		prm perfmodel.Params
	}{{dense, exact}, {ime, exact}, {dense, noisy(1)}, {dense, noisy(2)}, {dense, exact},
		{Experiment{Algorithm: perfmodel.IMe, Ranks: 144}, exact}, {ime, perfmodel.Params{PowerCapW: 110}}}
	for _, tc := range []struct {
		stored                  bool
		computed, hits, records int
	}{{false, 6, 0, 0}, {true, 5, 1, 5}} {
		var evStore, runStore *store.Store
		if tc.stored {
			evStore, runStore = openStore(t), openStore(t)
		}
		ev, computed, hits := &Evaluator{Store: evStore}, 0, 0
		for i, c := range cells {
			got, gotErr := ev.Analytic(c.e, c.prm)
			want, ran, wantErr := RunAnalyticStored(c.e, c.prm, runStore)
			fresh, freshErr := RunAnalytic(c.e, c.prm)
			if fmt.Sprint(gotErr, wantErr) != fmt.Sprint(wantErr, freshErr) || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(want, fresh) {
				t.Fatalf("store %v, cell %d: Analytic %+v, %v; RunAnalyticStored %+v, %v; RunAnalytic %+v, %v",
					tc.stored, i, got, gotErr, want, wantErr, fresh, freshErr)
			}
			if wantErr == nil && ran {
				computed++
			} else if wantErr == nil {
				hits++
			}
		}
		if c, h := ev.Counts(); c != tc.computed || h != tc.hits || computed != tc.computed || hits != tc.hits {
			t.Fatalf("store %v: Analytic %d computed, %d hits; RunAnalyticStored %d, %d; want %d, %d",
				tc.stored, c, h, computed, hits, tc.computed, tc.hits)
		}
		if tc.stored && (evStore.Len() != tc.records || runStore.Len() != tc.records) {
			t.Fatalf("stores hold %d and %d records, want %d", evStore.Len(), runStore.Len(), tc.records)
		}
	}
}

// TestAnalyticIdentityFoldsBlockSizeOverride pins that the key mirrors
// RunAnalytic's parameter resolution: the experiment-level BlockSize
// override and the params-level block size are one experiment.
func TestAnalyticIdentityFoldsBlockSizeOverride(t *testing.T) {
	e := Experiment{Algorithm: perfmodel.ScaLAPACK, N: 128, Ranks: 4, Placement: cluster.FullLoad}
	viaExperiment := e
	viaExperiment.BlockSize = 32
	idExp := AnalyticCellIdentity(viaExperiment, perfmodel.Params{})
	idPrm := AnalyticCellIdentity(e, perfmodel.Params{BlockSize: 32})
	kExp, _, err := store.KeyFor(idExp)
	if err != nil {
		t.Fatal(err)
	}
	kPrm, _, err := store.KeyFor(idPrm)
	if err != nil {
		t.Fatal(err)
	}
	if kExp != kPrm {
		t.Fatalf("BlockSize spellings split the identity: %.12s… vs %.12s…", kExp, kPrm)
	}
	kDefault, _, err := store.KeyFor(AnalyticCellIdentity(e, perfmodel.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	if kDefault == kExp {
		t.Fatal("nb=32 collides with the default block size")
	}
}

// TestAnalyticSeedIrrelevantToIdentity: the analytic engine never reads
// the input seed, so two experiments differing only in Seed are one cell.
func TestAnalyticSeedIrrelevantToIdentity(t *testing.T) {
	e := Experiment{Algorithm: perfmodel.IMe, N: 128, Ranks: 4, Placement: cluster.FullLoad}
	e2 := e
	e2.Seed = 99
	k1, _, err := store.KeyFor(AnalyticCellIdentity(e, perfmodel.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := store.KeyFor(AnalyticCellIdentity(e2, perfmodel.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("analytic identity depends on the input seed it never reads")
	}
}

// TestEngineSeparatesIdentity: the same cell coordinates under the
// monitored engine and the analytic engine are different experiments —
// exact numerics vs modelled schedule must never alias.
func TestEngineSeparatesIdentity(t *testing.T) {
	e := Experiment{Algorithm: perfmodel.IMe, N: 96, Ranks: 8, Placement: cluster.FullLoad, Seed: 3}
	ka, _, err := store.KeyFor(AnalyticCellIdentity(e, perfmodel.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	km, _, err := store.KeyFor(MonitoredCellIdentity(e))
	if err != nil {
		t.Fatal(err)
	}
	if ka == km {
		t.Fatal("analytic and monitored identities alias")
	}
}

// TestMonitoredStoredRoundTrip runs the real solver once and replays it
// from the store, including the residual only the monitored engine has.
func TestMonitoredStoredRoundTrip(t *testing.T) {
	st := openStore(t)
	e := Experiment{Algorithm: perfmodel.IMe, N: 96, Ranks: 24,
		Placement: cluster.HalfLoadOneSocket, Seed: 3, BlockSize: 8}

	cold, computed, err := Run(st, MonitoredCell(e), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !computed {
		t.Fatal("first monitored run must compute")
	}
	if cold.Residual <= 0 {
		t.Fatalf("monitored run has residual %g, want positive", cold.Residual)
	}
	warm, computed, err := Run(st, MonitoredCell(e), nil)
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("second monitored run must hit the store")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm monitored reconstruction diverged:\n got %+v\nwant %+v", warm, cold)
	}

	// Seed and phase are part of the monitored identity.
	e2 := e
	e2.Seed = 4
	if _, computed, err = Run(st, MonitoredCell(e2), nil); err != nil {
		t.Fatal(err)
	} else if !computed {
		t.Fatal("different input seed must be a different monitored experiment")
	}
}

// TestSweepStoredMatchesParallel: the stored sweep — cold then warm —
// must reproduce the storeless sweep's measurements exactly, and the warm
// pass must compute nothing.
func TestSweepStoredMatchesParallel(t *testing.T) {
	st := openStore(t)
	sweep := SweepCells(SweepKeys(), perfmodel.Params{Overlap: true})
	r := grid.New(4)

	base, err := sweep.Collect(&Evaluator{Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	cold := &Evaluator{Store: st, Runner: r}
	coldSweep, err := sweep.Collect(cold)
	if err != nil {
		t.Fatal(err)
	}
	if computed, hits := cold.Counts(); computed != sweep.Len() || hits != 0 {
		t.Fatalf("cold sweep computed %d hit %d, want %d/0", computed, hits, sweep.Len())
	}
	if !reflect.DeepEqual(coldSweep.Measurements, base.Measurements) {
		t.Fatal("cold stored sweep diverged from the storeless sweep")
	}
	warm := &Evaluator{Store: st, Runner: r}
	warmSweep, err := sweep.Collect(warm)
	if err != nil {
		t.Fatal(err)
	}
	if computed, hits := warm.Counts(); computed != 0 || hits != sweep.Len() {
		t.Fatalf("warm sweep computed %d hit %d, want 0/%d", computed, hits, sweep.Len())
	}
	if !reflect.DeepEqual(warmSweep.Measurements, base.Measurements) {
		t.Fatal("warm stored sweep diverged from the storeless sweep")
	}
}

// TestResilientStoredRoundTrip memoizes the expensive tier: a resilient
// run with crashes, replayed exactly from the store.
func TestResilientStoredRoundTrip(t *testing.T) {
	st := openStore(t)
	e := resilientExperiment(perfmodel.IMe)
	probe, err := RunResilient(e, ResilienceOptions{MTBF: faultFreeMTBF, Seed: 5, Storage: testStorage()})
	if err != nil {
		t.Fatal(err)
	}
	ro := ResilienceOptions{MTBF: probe.BaselineDurationS / 4, Seed: 5, Storage: testStorage()}

	cold, computed, err := Run(st, resilienceCell{e, ro}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !computed {
		t.Fatal("first resilient run must compute")
	}
	if cold.Crashes == 0 {
		t.Fatalf("MTBF %g drew no crashes; the round trip would not cover the faulted fields", ro.MTBF)
	}
	warm, computed, err := Run(st, resilienceCell{e, ro}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("second resilient run must hit the store")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm resilient reconstruction diverged:\n got %+v\nwant %+v", warm, cold)
	}

	// A different fault seed is a different experiment.
	ro2 := ro
	ro2.Seed = 6
	if _, computed, err = Run(st, resilienceCell{e, ro2}, nil); err != nil {
		t.Fatal(err)
	} else if !computed {
		t.Fatal("different fault seed must be a different resilience experiment")
	}
}

// TestRepeatedAnalyticStoredMatches: stats folded from stored cells must
// equal the storeless fold bit-for-bit (same accumulation order, exact
// per-cell round trips).
func TestRepeatedAnalyticStoredMatches(t *testing.T) {
	st := openStore(t)
	cell := SweepKey{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
	prm := perfmodel.Params{Overlap: true}
	r := grid.New(2)

	base := repeated(t, &Evaluator{Runner: r}, cell, prm, 5, 0.05)
	cold := &Evaluator{Store: st, Runner: r}
	if got := repeated(t, cold, cell, prm, 5, 0.05); got != base {
		t.Fatalf("cold stored stats diverged:\n got %+v\nwant %+v", got, base)
	}
	if computed, _ := cold.Counts(); computed != 5 {
		t.Fatalf("cold repetitions computed %d cells, want 5", computed)
	}
	warm := &Evaluator{Store: st, Runner: r}
	if got := repeated(t, warm, cell, prm, 5, 0.05); got != base {
		t.Fatalf("warm stored stats diverged:\n got %+v\nwant %+v", got, base)
	}
	if computed, hits := warm.Counts(); computed != 0 || hits != 5 {
		t.Fatalf("warm repetitions computed %d hit %d, want 0/5", computed, hits)
	}
}

// TestStoredUnknownEnergyDomainIsAnError: a record whose energy_j names a
// domain this module does not charge — a PP0 counter, a misspelling — does
// not restore with those joules quietly missing while total_j still counts
// them. The lookup fails and names the stray, on the dense and the sparse
// path, and a run over the same key fails too instead of recomputing
// around a record it cannot replace — also one that keeps no result and
// so only checks the payload (unkept).
func TestStoredUnknownEnergyDomainIsAnError(t *testing.T) {
	st := openStore(t)
	dense := AnalyticCell{E: Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.FullLoad}}
	sparseCell := SparseAnalyticCell{E: sparseTestExperiment(cluster.DeviceCPU)}
	plant := func(kind string, identity any, payload string) {
		t.Helper()
		key, canonical, err := store.KeyFor(identity)
		if err != nil {
			t.Fatal(err)
		}
		if added, err := st.Append(store.Record{Key: key, Kind: kind, Identity: canonical, Result: []byte(payload)}); err != nil || !added {
			t.Fatalf("append: added=%v err=%v", added, err)
		}
	}
	plant(CellKind, AnalyticCellIdentity(dense.E, dense.Params),
		`{"duration_s":1,"energy_j":{"PACKAGE_ENERGY:PACKAGE0":2,"PP0_ENERGY:PACKAGE0":1},"total_j":3,"engine":"analytic"}`)
	plant(SparseCellKind, SparseAnalyticCellIdentity(sparseCell.E),
		`{"duration_s":1,"energy_j":{"PACKAGE_ENERGY:PACKAGE0":2,"DRAM_ENERGY:PACKGE1":1,"ACCEL_ENERGY":1},"total_j":4,"iters":7,"engine":"sparse-analytic"}`)

	_, ok, err := lookup(st, dense)
	if ok || err == nil || !strings.Contains(err.Error(), `"PP0_ENERGY:PACKAGE0"`) {
		t.Errorf("dense lookup: ok=%v err=%v, want an error naming PP0_ENERGY:PACKAGE0", ok, err)
	}
	if _, computed, err := Run(st, dense, nil); computed || err == nil {
		t.Errorf("dense run over the same key: computed=%v err=%v, want the lookup's error", computed, err)
	}
	if _, computed, uerr := Run(st, unkept[Measurement, AnalyticCell]{dense}, nil); computed || uerr == nil || uerr.Error() != err.Error() {
		t.Errorf("unkept dense run: computed=%v err=%v, want the lookup's error %v", computed, uerr, err)
	}
	_, ok, err = lookup(st, sparseCell)
	if ok || err == nil || !strings.Contains(err.Error(), `["ACCEL_ENERGY" "DRAM_ENERGY:PACKGE1"]`) {
		t.Errorf("sparse lookup: ok=%v err=%v, want an error naming both strays in order", ok, err)
	}
	if _, computed, uerr := Run(st, unkept[SparseMeasurement, SparseAnalyticCell]{sparseCell}, nil); computed || uerr == nil || uerr.Error() != err.Error() {
		t.Errorf("unkept sparse run: computed=%v err=%v, want the lookup's error %v", computed, uerr, err)
	}
}

// TestCellSetsKeyLikeLoneCells: a cell set renders the model half once
// for all its cells; a cell built on its own renders its own. Both must
// be one key, or a store a campaign filled would miss every advisor and
// lsbench lookup of the same cell.
func TestCellSetsKeyLikeLoneCells(t *testing.T) {
	st := openStore(t)
	capped := perfmodel.Params{Overlap: true, PowerCapW: 110}
	sets := []interface{ Run(*Evaluator) error }{
		SweepCells(SweepKeys(), capped), RepetitionStudy(capped), SparseSweepCells(),
	}
	for _, set := range sets {
		if err := set.Run(&Evaluator{Store: st, Runner: grid.New(1)}); err != nil {
			t.Fatal(err)
		}
	}
	hit := func(name string, ok bool, err error) {
		t.Helper()
		if !ok || err != nil {
			t.Errorf("%s: a lone cell misses what its set stored (ok=%v err=%v)", name, ok, err)
		}
	}
	for _, k := range SweepKeys() {
		_, ok, err := LookupAnalyticCell(st, k.Experiment(), capped)
		hit(k.String(), ok, err)
		p := capped
		p.NodeVariability, p.NoiseSeed = repetitionVariability, repetitionReps
		if k.Ranks == 144 && k.Placement == cluster.FullLoad {
			_, ok, err := LookupAnalyticCell(st, k.Experiment(), p)
			hit(k.String()+" last repetition", ok, err)
		}
	}
	for _, k := range SparseSweepKeys() {
		_, ok, err := lookup(st, SparseAnalyticCell{E: k.Experiment()})
		hit(k.String(), ok, err)
	}
}
