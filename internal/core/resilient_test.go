package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/perfmodel"
)

// resilientExperiment is the shared small-order job of the resilience
// tests: big enough for several panels/levels, small enough to run both
// solvers across an MTBF sweep in test time.
func resilientExperiment(alg perfmodel.Algorithm) Experiment {
	return Experiment{Algorithm: alg, N: 96, Ranks: 24,
		Placement: cluster.HalfLoadOneSocket, Seed: 7, BlockSize: 8}
}

// faultFreeMTBF is far beyond any small-order makespan: zero crashes.
const faultFreeMTBF = 1e9

// testStorage scales checkpoint storage latency to the microsecond-class
// makespans of the toy orders above; the production default's 1 ms
// per-snapshot latency would dominate a 5 ms run and drown the solvers'
// energy ordering the crossover test pins.
func testStorage() ckpt.CostModel {
	return ckpt.CostModel{BandwidthBps: 2e9, LatencyS: 1e-6}
}

func TestResilientFaultFreeMatchesBaseline(t *testing.T) {
	for _, alg := range []perfmodel.Algorithm{perfmodel.IMe, perfmodel.ScaLAPACK} {
		rm, err := RunResilient(resilientExperiment(alg), ResilienceOptions{MTBF: faultFreeMTBF, Seed: 1, Storage: testStorage()})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rm.Crashes != 0 || rm.Restarts != 0 || rm.Recoveries != 0 {
			t.Fatalf("%v: MTBF %g scheduled faults: %+v", alg, faultFreeMTBF, rm)
		}
		if rm.DurationS != rm.BaselineDurationS {
			t.Fatalf("%v: fault-free run took %g, baseline %g", alg, rm.DurationS, rm.BaselineDurationS)
		}
		if rel := math.Abs(rm.RecoveryJ) / rm.BaselineJ; rel > 1e-9 {
			t.Fatalf("%v: fault-free recovery energy %g J (rel %g)", alg, rm.RecoveryJ, rel)
		}
		if rm.MaxRelDiff != 0 {
			t.Fatalf("%v: fault-free run changed the solution by %g", alg, rm.MaxRelDiff)
		}
	}
}

// crashyOptions picks an MTBF a fraction of the known small-order
// makespan so the deterministic schedule contains at least one crash.
func crashyOptions(t *testing.T, alg perfmodel.Algorithm) (ResilienceOptions, ResilientMeasurement) {
	t.Helper()
	probe, err := RunResilient(resilientExperiment(alg), ResilienceOptions{MTBF: faultFreeMTBF, Seed: 1, Storage: testStorage()})
	if err != nil {
		t.Fatal(err)
	}
	ro := ResilienceOptions{MTBF: probe.BaselineDurationS / 4, Seed: 5, Storage: testStorage()}
	rm, err := RunResilient(resilientExperiment(alg), ro)
	if err != nil {
		t.Fatalf("%v under MTBF %g: %v", alg, ro.MTBF, err)
	}
	if rm.Crashes == 0 {
		t.Fatalf("%v: MTBF %g over horizon %g drew no crashes; pick another seed",
			alg, ro.MTBF, rm.BaselineDurationS)
	}
	return ro, rm
}

func TestResilientIMeRecoversInPlace(t *testing.T) {
	_, rm := crashyOptions(t, perfmodel.IMe)
	if rm.Recoveries == 0 {
		t.Fatalf("crashes scheduled (%d) but no checksum recoveries ran", rm.Crashes)
	}
	if rm.Restarts != 0 || rm.CheckpointWrites != 0 {
		t.Fatalf("IMe must recover in place, got %d restarts / %d checkpoint writes",
			rm.Restarts, rm.CheckpointWrites)
	}
	if rm.RecoveryJ <= 0 {
		t.Fatalf("recovery must cost energy, got %g J", rm.RecoveryJ)
	}
	if rm.DurationS <= rm.BaselineDurationS {
		t.Fatalf("recovery must cost time: %g vs baseline %g", rm.DurationS, rm.BaselineDurationS)
	}
}

func TestResilientScalapackRestartsFromCheckpoint(t *testing.T) {
	_, rm := crashyOptions(t, perfmodel.ScaLAPACK)
	if rm.Restarts == 0 {
		t.Fatalf("crashes scheduled (%d) but no restarts ran", rm.Crashes)
	}
	if rm.CheckpointWrites == 0 {
		t.Fatal("checkpointed run recorded no snapshot writes")
	}
	if rm.RecoveryJ <= 0 {
		t.Fatalf("replayed work must cost energy, got %g J", rm.RecoveryJ)
	}
	if rm.DurationS <= rm.BaselineDurationS {
		t.Fatalf("restarts must cost time: %g vs baseline %g", rm.DurationS, rm.BaselineDurationS)
	}
}

// TestResilientDeterminism pins satellite guarantee: the same seed yields
// bit-identical schedules and virtual clocks, and energies equal to
// accumulation-order rounding (1e-9 relative), across repeated runs.
func TestResilientDeterminism(t *testing.T) {
	for _, alg := range []perfmodel.Algorithm{perfmodel.IMe, perfmodel.ScaLAPACK} {
		ro, first := crashyOptions(t, alg)
		again, err := RunResilient(resilientExperiment(alg), ro)
		if err != nil {
			t.Fatal(err)
		}
		if first.Crashes != again.Crashes || first.Restarts != again.Restarts ||
			first.Recoveries != again.Recoveries || first.CheckpointWrites != again.CheckpointWrites {
			t.Fatalf("%v: fault counts diverged across runs: %+v vs %+v", alg, first, again)
		}
		if first.DurationS != again.DurationS || first.BaselineDurationS != again.BaselineDurationS {
			t.Fatalf("%v: virtual clocks diverged: %.17g vs %.17g", alg, first.DurationS, again.DurationS)
		}
		if rel := math.Abs(first.TotalJ-again.TotalJ) / first.TotalJ; rel > 1e-9 {
			t.Fatalf("%v: energies diverged beyond rounding: %.17g vs %.17g", alg, first.TotalJ, again.TotalJ)
		}
		if first.MaxRelDiff != again.MaxRelDiff || first.Residual != again.Residual {
			t.Fatalf("%v: solutions diverged across runs", alg)
		}
	}
}

// TestResilienceStudyCrossoverShape pins the headline claim: under
// frequent crashes IMe's in-place checksum recovery undercuts ScaLAPACK's
// restart replays, while under rare crashes ScaLAPACK's lower baseline
// energy wins — so the sweep has a crossover.
func TestResilienceStudyCrossoverShape(t *testing.T) {
	probe, err := RunResilient(resilientExperiment(perfmodel.ScaLAPACK),
		ResilienceOptions{MTBF: faultFreeMTBF, Seed: 1, Storage: testStorage()})
	if err != nil {
		t.Fatal(err)
	}
	base := probe.BaselineDurationS
	mtbfs := []float64{base / 8, base / 4, base, 4 * base, faultFreeMTBF}
	pts, err := resilienceStudy(&Evaluator{}, resilientExperiment(0), mtbfs, ResilienceOptions{Seed: 5, Storage: testStorage()})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(mtbfs) {
		t.Fatalf("study returned %d points, want %d", len(pts), len(mtbfs))
	}
	if w := pts[0].Winner(); w != perfmodel.IMe {
		t.Fatalf("at MTBF %g (frequent crashes) winner = %v, want IMe (IMe %g J vs ScaLAPACK %g J)",
			pts[0].MTBF, w, pts[0].IMe.TotalJ, pts[0].ScaLAPACK.TotalJ)
	}
	last := pts[len(pts)-1]
	if w := last.Winner(); w != perfmodel.ScaLAPACK {
		t.Fatalf("at MTBF %g (no crashes) winner = %v, want ScaLAPACK (IMe %g J vs ScaLAPACK %g J)",
			last.MTBF, w, last.IMe.TotalJ, last.ScaLAPACK.TotalJ)
	}
	lo, hi, ok := CrossoverMTBF(pts)
	if !ok {
		t.Fatal("no crossover located across the sweep")
	}
	t.Logf("crossover between MTBF %g and %g", lo, hi)

	var sb strings.Builder
	if err := WriteResilienceTable(&sb, pts); err != nil {
		t.Fatal(err)
	}
	table := sb.String()
	if !strings.Contains(table, "| MTBF (s) |") || strings.Count(table, "\n") != len(pts)+2 {
		t.Fatalf("malformed resilience table:\n%s", table)
	}

	// Study determinism: re-rendering from a fresh sweep is byte-identical.
	pts2, err := resilienceStudy(&Evaluator{}, resilientExperiment(0), mtbfs, ResilienceOptions{Seed: 5, Storage: testStorage()})
	if err != nil {
		t.Fatal(err)
	}
	var sb2 strings.Builder
	if err := WriteResilienceTable(&sb2, pts2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != table {
		t.Fatalf("resilience table not deterministic:\n%s\nvs\n%s", table, sb2.String())
	}
}
