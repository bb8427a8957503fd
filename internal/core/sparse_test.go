package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/sparse"
)

func sparseTestExperiment(dev cluster.Device) SparseExperiment {
	return SparseExperiment{
		Algorithm: sparse.CG, Kind: sparse.Banded, N: 131072, Ranks: 144,
		Placement: cluster.FullLoad, Device: dev,
		Band: 256, Cond: 1e4, Seed: SparseSweepSeed,
	}
}

// TestSparseAnalyticStoredExactRoundTrip extends the byte-identity
// contract to sparse cells, including the accelerator energy domain,
// which lives outside rapl.Domains() and must still round-trip.
func TestSparseAnalyticStoredExactRoundTrip(t *testing.T) {
	for _, dev := range cluster.Devices() {
		st := openStore(t)
		e := sparseTestExperiment(dev)
		prm := perfmodel.Params{}

		cold, computed, err := Run(st, SparseAnalyticCell{e, prm}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !computed {
			t.Fatal("first run on an empty store must compute")
		}
		direct, err := RunSparseAnalytic(e, prm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, direct) {
			t.Fatalf("%s: stored cold run diverged from plain RunSparseAnalytic:\n got %+v\nwant %+v", dev, cold, direct)
		}
		warm, computed, err := Run(st, SparseAnalyticCell{e, prm}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if computed {
			t.Fatal("second run must hit the store")
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("%s: warm reconstruction diverged:\n got %+v\nwant %+v", dev, warm, cold)
		}
	}
}

// TestSparseDeviceSplitsIdentity pins that the device axis keys separate
// cells — the advisor depends on both coexisting in one store.
func TestSparseDeviceSplitsIdentity(t *testing.T) {
	st := openStore(t)
	prm := perfmodel.Params{}
	for _, dev := range cluster.Devices() {
		if _, _, err := Run(st, SparseAnalyticCell{sparseTestExperiment(dev), prm}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records, want one per device (2)", st.Len())
	}
}

// TestSparseSweepDeterministicAcrossWorkers pins the -j byte-identity
// contract at the measurement level: serial cold, parallel cold, and
// parallel warm sweeps must agree exactly.
func TestSparseSweepDeterministicAcrossWorkers(t *testing.T) {
	prm := perfmodel.Params{}
	serial, computed, err := NewSparseSweepStored(prm, grid.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if computed != len(SparseSweepKeys()) {
		t.Fatalf("storeless sweep computed %d cells, want %d", computed, len(SparseSweepKeys()))
	}
	st := openStore(t)
	parallel, _, err := NewSparseSweepStored(prm, grid.New(8), st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Measurements, parallel.Measurements) {
		t.Fatal("parallel sweep diverged from serial sweep")
	}
	warm, computed, err := NewSparseSweepStored(prm, grid.New(8), st)
	if err != nil {
		t.Fatal(err)
	}
	if computed != 0 {
		t.Fatalf("warm sweep recomputed %d cells", computed)
	}
	if !reflect.DeepEqual(serial.Measurements, warm.Measurements) {
		t.Fatal("warm sweep diverged from cold sweep")
	}
}

// TestSparseMonitoredCrossChecksAnalytic executes the real distributed
// solver under the monitoring framework and sanity-checks it against the
// analytic engine's iteration model: same solver, same condition target,
// so the executed iteration count must land near the model's estimate
// and the solve must actually be accurate.
func TestSparseMonitoredCrossChecksAnalytic(t *testing.T) {
	e := SparseExperiment{
		Algorithm: sparse.CG, Kind: sparse.Banded, N: 2048, Ranks: 48,
		Placement: cluster.FullLoad, Device: cluster.DeviceCPU,
		Band: 16, Cond: 100, Seed: 5,
	}
	m, err := RunSparseMonitored(e)
	if err != nil {
		t.Fatal(err)
	}
	if m.Residual > 1e-9 {
		t.Fatalf("monitored solve residual %g", m.Residual)
	}
	if m.DurationS <= 0 || m.TotalJ <= 0 {
		t.Fatalf("degenerate monitored measurement %+v", m)
	}
	est := sparse.EstIters(e.Algorithm, e.Cond, e.N)
	if m.Iters < est/4 || m.Iters > est*4 {
		t.Fatalf("executed %d iterations, model estimates %d — model and solver disagree wildly", m.Iters, est)
	}
}

// TestSparseMonitoredRejectsAccel pins that the executable engine never
// pretends to run accelerated kernels.
func TestSparseMonitoredRejectsAccel(t *testing.T) {
	e := sparseTestExperiment(cluster.DeviceAccel)
	if _, err := RunSparseMonitored(e); err == nil {
		t.Fatal("monitored engine accepted an accelerated experiment")
	}
}

// TestRankSparseObjectives exercises every objective through RankSparse
// on one shape where the devices disagree by construction.
func TestRankSparseObjectives(t *testing.T) {
	prm := perfmodel.Params{}
	big := sparse.Spec{Kind: sparse.Banded, N: 1048576, Band: 256, Cond: 1e4, Seed: SparseSweepSeed}
	small := sparse.Spec{Kind: sparse.Banded, N: 16384, Band: 256, Cond: 1e2, Seed: SparseSweepSeed}
	recBig, _, err := RecommendSparseStored(sparse.CG, big, SparseSweepRanks, cluster.FullLoad, MinEnergy, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recBig.Best != cluster.DeviceAccel {
		t.Fatalf("big solve: best %s, want accel", recBig.Best)
	}
	recSmall, _, err := RecommendSparseStored(sparse.CG, small, SparseSweepRanks, cluster.FullLoad, MinEnergy, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recSmall.Best != cluster.DeviceCPU {
		t.Fatalf("small solve: best %s, want cpu", recSmall.Best)
	}
	for _, obj := range Objectives() {
		rec, _, err := RecommendSparseStored(sparse.BiCGSTAB, big, SparseSweepRanks, cluster.FullLoad, obj, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Margin < 0 || rec.Margin >= 1 {
			t.Fatalf("%s: margin %g outside [0,1)", obj, rec.Margin)
		}
	}
}

// TestRecommendSparseStoredAgreesWithCompute pins that a store-served
// sparse recommendation can never differ from a freshly computed one.
func TestRecommendSparseStoredAgreesWithCompute(t *testing.T) {
	prm := perfmodel.Params{}
	spec := sparse.Spec{Kind: sparse.Random, N: 131072, Density: 1e-3, Cond: 1e4, Seed: SparseSweepSeed}
	st := openStore(t)
	cold, computed, err := RecommendSparseStored(sparse.CG, spec, SparseSweepRanks, cluster.FullLoad, MinTime, prm, st)
	if err != nil {
		t.Fatal(err)
	}
	if computed != 2 {
		t.Fatalf("cold recommend computed %d cells, want 2", computed)
	}
	warm, computed, err := RecommendSparseStored(sparse.CG, spec, SparseSweepRanks, cluster.FullLoad, MinTime, prm, st)
	if err != nil {
		t.Fatal(err)
	}
	if computed != 0 {
		t.Fatalf("warm recommend computed %d cells", computed)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm recommendation diverged from cold")
	}
	direct, _, err := RecommendSparseStored(sparse.CG, spec, SparseSweepRanks, cluster.FullLoad, MinTime, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, cold) {
		t.Fatal("storeless recommendation diverged from stored")
	}
}
