package perfmodel

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
)

func fullLoad(t *testing.T, ranks int) cluster.Config {
	t.Helper()
	cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runOrDie(t *testing.T, alg Algorithm, n int, cfg cluster.Config, prm Params) Result {
	t.Helper()
	r, err := Run(alg, n, cfg, prm)
	if err != nil {
		t.Fatalf("%v n=%d %s: %v", alg, n, cfg.Label(), err)
	}
	return r
}

// TestPowerCapTradeoff exercises the paper's future-work experiment: a
// package power cap lowers average power but stretches execution, and a
// tighter cap stretches it more.
func TestPowerCapTradeoff(t *testing.T) {
	cfg := fullLoad(t, 144)
	base := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true})
	capped := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true, PowerCapW: 110})
	tighter := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true, PowerCapW: 90})
	tightest := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true, PowerCapW: 80})
	if capped.DurationS <= base.DurationS {
		t.Fatal("capped run not slower")
	}
	if tighter.DurationS <= capped.DurationS || tightest.DurationS <= tighter.DurationS {
		t.Fatal("tighter cap not slower")
	}
	if capped.AvgPowerW() >= base.AvgPowerW() {
		t.Fatal("capped run not lower power")
	}
	// A cap with slack changes nothing.
	slack := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true, PowerCapW: 500})
	if slack.DurationS != base.DurationS {
		t.Fatal("slack cap changed duration")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := fullLoad(t, 144)
	if _, err := Run(IMe, 0, cfg, Params{}); err == nil {
		t.Error("zero order accepted")
	}
	if _, err := Run(Algorithm(9), 100, cfg, Params{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run(IMe, 10, cluster.Config{}, Params{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(IMe, 10, cfg, Params{}); err == nil {
		t.Error("ranks > order accepted")
	}
}

func TestResultAccessors(t *testing.T) {
	cfg := fullLoad(t, 144)
	r := runOrDie(t, IMe, 8640, cfg, Params{Overlap: true})
	if r.EnergyJ.Pkg() <= 0 || r.EnergyJ.Dram() <= 0 {
		t.Fatal("domain energies must be positive")
	}
	sum := r.EnergyJ.Pkg() + r.EnergyJ.Dram()
	if diff := sum/r.TotalJ - 1; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("domain sum %.1f != total %.1f", sum, r.TotalJ)
	}
	if r.AvgPowerW() <= 0 {
		t.Fatal("power must be positive")
	}
	if (Result{}).AvgPowerW() != 0 {
		t.Fatal("zero-duration result should have zero power")
	}
	if IMe.String() != "IMe" || ScaLAPACK.String() != "ScaLAPACK" || Algorithm(7).String() == "" {
		t.Fatal("Algorithm.String misbehaves")
	}
}

// TestResultFromTimesReproducesRun pins the seam the surrogate plugs
// into: handed Run's own pre-jitter seconds, ResultFromTimes must return
// Run's result exactly — the cap stretch is derived once, for both.
func TestResultFromTimesReproducesRun(t *testing.T) {
	prm := Params{Overlap: true, PowerCapW: 110}
	for _, pl := range cluster.Placements() {
		cfg, err := cluster.NewConfig(144, pl, cluster.MarconiA3())
		if err != nil {
			t.Fatal(err)
		}
		if prm.Normalized().capStretch(cfg) == 1 {
			t.Fatalf("%v: a %g W cap does not bind; the test would prove nothing", pl, prm.PowerCapW)
		}
		for _, alg := range Algorithms() {
			r := runOrDie(t, alg, 8640, cfg, prm)
			if got := ResultFromTimes(alg, 8640, cfg, prm, r.ComputeS, r.ExposedCommS); !reflect.DeepEqual(got, r) {
				t.Errorf("%v %v: ResultFromTimes = %+v, Run = %+v", alg, pl, got, r)
			}
		}
	}
}

// TestRunAllocationBudget keeps a cell off the heap: its energies are an
// array in the Result, and what the replays resolve per cell must stay on
// the stack.
func TestRunAllocationBudget(t *testing.T) {
	cfg := fullLoad(t, 144)
	for _, alg := range Algorithms() {
		for _, overlap := range []bool{true, false} {
			prm := Params{Overlap: overlap}
			if got := testing.AllocsPerRun(10, func() {
				if _, err := Run(alg, 1000, cfg, prm); err != nil {
					t.Fatal(err)
				}
			}); got > 0 {
				t.Errorf("%v overlap=%v: %v allocations per Run, want 0", alg, overlap, got)
			}
		}
	}
}

// AvgPowerW is the whole-job average power.
func (r Result) AvgPowerW() float64 {
	if r.DurationS <= 0 {
		return 0
	}
	return r.TotalJ / r.DurationS
}
