package perfmodel

// These tests pin the calibrated model to the qualitative findings of the
// paper's evaluation (§5). They are the reproduction's contract: if a
// constant changes and a finding no longer holds, a test here fails.

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rapl"
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

func paperGrid(t *testing.T) map[[2]int][2]Result {
	t.Helper()
	out := make(map[[2]int][2]Result)
	prm := Params{Overlap: true}
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			cfg := fullLoad(t, ranks)
			out[[2]int{n, ranks}] = [2]Result{
				runOrDie(t, IMe, n, cfg, prm),
				runOrDie(t, ScaLAPACK, n, cfg, prm),
			}
		}
	}
	return out
}

// TestFigure5Crossover pins the duration winners of Fig. 5: ScaLAPACK is
// faster in the dense computations, IMe in the distributed ones — the
// paper names 576 and 1296 ranks at n = 8640 and 17280. (25920, 1296) is
// borderline distributed and lands on IMe's side in our calibration; the
// paper does not report it explicitly.
func TestFigure5Crossover(t *testing.T) {
	grid := paperGrid(t)
	imeWins := map[[2]int]bool{
		{8640, 576}: true, {8640, 1296}: true,
		{17280, 576}: true, {17280, 1296}: true,
		{25920, 1296}: true,
	}
	for key, pair := range grid {
		ime, ge := pair[0], pair[1]
		gotIMe := ime.DurationS < ge.DurationS
		if gotIMe != imeWins[key] {
			t.Errorf("n=%d ranks=%d: IMe %.3fs vs ScaLAPACK %.3fs — faster=%v, want IMe-faster=%v",
				key[0], key[1], ime.DurationS, ge.DurationS, gotIMe, imeWins[key])
		}
	}
}

// TestDenseDurationRatio pins the ≈2× IMe/ScaLAPACK duration ratio on the
// densest deployment, consistent with §5.4's energy/power arithmetic.
func TestDenseDurationRatio(t *testing.T) {
	grid := paperGrid(t)
	pair := grid[[2]int{34560, 144}]
	ratio := pair[0].DurationS / pair[1].DurationS
	if ratio < 1.6 || ratio > 2.3 {
		t.Fatalf("dense IMe/ScaLAPACK duration ratio = %.2f, want ≈2", ratio)
	}
}

// TestFigure4EnergyAndTimeGrowWithMatrix pins Fig. 4: at fixed ranks, both
// energy and duration rise superlinearly with the matrix dimension.
func TestFigure4EnergyAndTimeGrowWithMatrix(t *testing.T) {
	grid := paperGrid(t)
	dims := cluster.PaperMatrixDims()
	for _, ranks := range cluster.PaperRankCounts() {
		for ai, alg := range Algorithms() {
			for i := 1; i < len(dims); i++ {
				prev := grid[[2]int{dims[i-1], ranks}][ai]
				cur := grid[[2]int{dims[i], ranks}][ai]
				if cur.DurationS <= prev.DurationS {
					t.Errorf("%v ranks=%d: duration not increasing %d→%d", alg, ranks, dims[i-1], dims[i])
				}
				if cur.TotalJ <= prev.TotalJ {
					t.Errorf("%v ranks=%d: energy not increasing %d→%d", alg, ranks, dims[i-1], dims[i])
				}
			}
			// Superlinear: dimension ×2 (8640→17280) must raise energy by
			// far more than ×2 on the compute-bound 144-rank deployment.
			if ranks == 144 {
				e1 := grid[[2]int{8640, 144}][ai].TotalJ
				e2 := grid[[2]int{17280, 144}][ai].TotalJ
				if e2/e1 < 3 {
					t.Errorf("%v: energy growth 8640→17280 = %.1f×, want superlinear (>3×)", alg, e2/e1)
				}
			}
		}
	}
}

// TestFigure5StrongScaling pins the strong-scalability claim: duration
// falls as ranks grow at fixed matrix size. The paper's smallest matrix
// flattens out at extreme rank counts (the distributed regime where
// communication dominates), so the strict check applies from 17280 up.
func TestFigure5StrongScaling(t *testing.T) {
	grid := paperGrid(t)
	ranks := cluster.PaperRankCounts()
	for _, n := range []int{17280, 25920, 34560} {
		for ai, alg := range Algorithms() {
			for i := 1; i < len(ranks); i++ {
				prev := grid[[2]int{n, ranks[i-1]}][ai]
				cur := grid[[2]int{n, ranks[i]}][ai]
				if cur.DurationS >= prev.DurationS {
					t.Errorf("%v n=%d: duration %d ranks (%.3f) not below %d ranks (%.3f)",
						alg, n, ranks[i], cur.DurationS, ranks[i-1], prev.DurationS)
				}
			}
		}
	}
}

// TestEnergyComparison pins §5.4: ScaLAPACK consumes less total energy in
// every dense cell, with the gap reaching the quoted 50–60% at the large
// matrices and narrowing as ranks grow and the matrix shrinks.
func TestEnergyComparison(t *testing.T) {
	grid := paperGrid(t)
	// Dense cells: all 144-rank cells and everything at n ≥ 25920 except
	// the borderline (25920,1296).
	dense := [][2]int{
		{8640, 144}, {17280, 144}, {25920, 144}, {34560, 144},
		{17280, 576}, {25920, 576}, {34560, 576}, {34560, 1296},
	}
	for _, key := range dense {
		pair := grid[key]
		if pair[1].TotalJ >= pair[0].TotalJ {
			t.Errorf("n=%d ranks=%d: ScaLAPACK energy %.0f J not below IMe %.0f J",
				key[0], key[1], pair[1].TotalJ, pair[0].TotalJ)
		}
	}
	// Headline gap 50–60% at the big compute-bound cells.
	for _, key := range [][2]int{{25920, 144}, {34560, 144}} {
		pair := grid[key]
		gap := 1 - pair[1].TotalJ/pair[0].TotalJ
		if gap < 0.45 || gap > 0.62 {
			t.Errorf("n=%d ranks=%d: energy gap %.0f%%, want ≈50–60%%", key[0], key[1], gap*100)
		}
	}
	// The gap decreases with more ranks at fixed n = 34560…
	g := func(key [2]int) float64 {
		pair := grid[key]
		return 1 - pair[1].TotalJ/pair[0].TotalJ
	}
	if !(g([2]int{34560, 144}) > g([2]int{34560, 576}) && g([2]int{34560, 576}) > g([2]int{34560, 1296})) {
		t.Error("energy gap does not decrease with rank count at n=34560")
	}
	// …and with smaller matrices at fixed 144 ranks.
	if !(g([2]int{34560, 144}) > g([2]int{8640, 144})) {
		t.Error("energy gap does not decrease with matrix size at 144 ranks")
	}
}

// TestFigure6PowerFlatAndGap pins Fig. 6: at fixed ranks, average power is
// nearly constant across matrix dimensions, and IMe draws 12–18% more
// power than ScaLAPACK.
func TestFigure6PowerFlatAndGap(t *testing.T) {
	grid := paperGrid(t)
	for _, ranks := range cluster.PaperRankCounts() {
		for ai, alg := range Algorithms() {
			lo, hi := 1e300, 0.0
			for _, n := range cluster.PaperMatrixDims() {
				p := grid[[2]int{n, ranks}][ai].AvgPowerW()
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
			if hi/lo > 1.20 {
				t.Errorf("%v ranks=%d: power spans %.0f–%.0f W (%.0f%%), want nearly flat",
					alg, ranks, lo, hi, (hi/lo-1)*100)
			}
		}
		// Power gap: 12–18% in the compute-bound cells (the paper's
		// quoted band); the most communication-bound cell (8640, 1296)
		// sits below it because polling power is algorithm-independent.
		for _, n := range []int{17280, 25920, 34560} {
			pair := grid[[2]int{n, ranks}]
			gap := pair[0].AvgPowerW()/pair[1].AvgPowerW() - 1
			if gap < 0.10 || gap > 0.20 {
				t.Errorf("n=%d ranks=%d: power gap %.1f%%, want 12–18%%", n, ranks, gap*100)
			}
		}
	}
}

// TestFigure7PowerProportionalToRanks pins Fig. 7: at fixed matrix size,
// power follows the deployed rank count almost proportionally.
func TestFigure7PowerProportionalToRanks(t *testing.T) {
	grid := paperGrid(t)
	for _, n := range cluster.PaperMatrixDims() {
		for ai, alg := range Algorithms() {
			p144 := grid[[2]int{n, 144}][ai].AvgPowerW()
			p576 := grid[[2]int{n, 576}][ai].AvgPowerW()
			p1296 := grid[[2]int{n, 1296}][ai].AvgPowerW()
			if r := p576 / p144; r < 3.2 || r > 4.8 {
				t.Errorf("%v n=%d: power(576)/power(144) = %.2f, want ≈4", alg, n, r)
			}
			if r := p1296 / p144; r < 7.2 || r > 10.8 {
				t.Errorf("%v n=%d: power(1296)/power(144) = %.2f, want ≈9", alg, n, r)
			}
		}
	}
}

// TestDramPowerGap pins §5.4's DRAM observation: the IMe-vs-ScaLAPACK gap
// is much larger in the DRAM domain, around 42% at 144 ranks on the big
// matrix and larger in the distributed deployments.
func TestDramPowerGap(t *testing.T) {
	grid := paperGrid(t)
	pair := grid[[2]int{34560, 144}]
	gap := pair[0].DramPowerW()/pair[1].DramPowerW() - 1
	if gap < 0.35 || gap > 0.55 {
		t.Fatalf("DRAM power gap at (34560,144) = %.0f%%, want ≈42%%", gap*100)
	}
	for key, p := range grid {
		pkgGap := p[0].AvgPowerW()/p[1].AvgPowerW() - 1
		dramGap := p[0].DramPowerW()/p[1].DramPowerW() - 1
		if dramGap <= pkgGap {
			t.Errorf("n=%d ranks=%d: DRAM gap %.0f%% not above total gap %.0f%%",
				key[0], key[1], dramGap*100, pkgGap*100)
		}
	}
}

// TestFigure3FullVsHalfLoad pins Fig. 3: the full-load placement always
// consumes less energy than either half-load placement, and the two
// half-load variants are nearly indistinguishable.
func TestFigure3FullVsHalfLoad(t *testing.T) {
	prm := Params{Overlap: true}
	spec := cluster.MarconiA3()
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			for ai, alg := range Algorithms() {
				_ = ai
				byPlacement := map[cluster.Placement]Result{}
				for _, pl := range cluster.Placements() {
					cfg, err := cluster.NewConfig(ranks, pl, spec)
					if err != nil {
						t.Fatal(err)
					}
					byPlacement[pl] = runOrDie(t, alg, n, cfg, prm)
				}
				full := byPlacement[cluster.FullLoad].TotalJ
				one := byPlacement[cluster.HalfLoadOneSocket].TotalJ
				two := byPlacement[cluster.HalfLoadTwoSockets].TotalJ
				if full >= one || full >= two {
					t.Errorf("%v n=%d ranks=%d: full load %.0f J not below half loads %.0f/%.0f J",
						alg, n, ranks, full, one, two)
				}
				if diff := one/two - 1; diff < -0.05 || diff > 0.05 {
					t.Errorf("%v n=%d ranks=%d: one- vs two-socket differ by %.1f%%, want ≈equal",
						alg, n, ranks, diff*100)
				}
				// The packed socket's quadratic uncore load makes the
				// one-socket variant marginally more expensive.
				if one <= two {
					t.Errorf("%v n=%d ranks=%d: one-socket %.1f J not above two-socket %.1f J",
						alg, n, ranks, one, two)
				}
			}
		}
	}
}

// TestSocketImbalance pins §5.3: in the one-socket placement the idle
// socket still consumes 40–50% of the busy one (its measured energy is
// "50-60% lower than the other").
func TestSocketImbalance(t *testing.T) {
	cfg, err := cluster.NewConfig(144, cluster.HalfLoadOneSocket, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	r := runOrDie(t, IMe, 17280, cfg, Params{Overlap: true})
	busy := r.EnergyJ[rapl.PKG0]
	idle := r.EnergyJ[rapl.PKG1]
	frac := idle / busy
	if frac < 0.38 || frac > 0.52 {
		t.Fatalf("idle/busy package energy = %.2f, want 0.40–0.50", frac)
	}
	// And package 0 exceeds package 1 at equal load (two-socket split).
	cfg2, err := cluster.NewConfig(144, cluster.HalfLoadTwoSockets, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	r2 := runOrDie(t, IMe, 17280, cfg2, Params{Overlap: true})
	if r2.EnergyJ[rapl.PKG0] <= r2.EnergyJ[rapl.PKG1] {
		t.Fatal("package 0 should exceed package 1 at equal load")
	}
}

// TestPowerCapTradeoff exercises the paper's future-work experiment: a
// package power cap lowers average power but stretches execution, and a
// tighter cap stretches it more.
func TestPowerCapTradeoff(t *testing.T) {
	cfg := fullLoad(t, 144)
	base := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true})
	capped := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true, PowerCapW: 110})
	tighter := runOrDie(t, ScaLAPACK, 17280, cfg, Params{Overlap: true, PowerCapW: 90})
	if capped.DurationS <= base.DurationS {
		t.Fatal("capped run not slower")
	}
	if tighter.DurationS <= capped.DurationS {
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
	if r.PkgJ() <= 0 || r.DramJ() <= 0 {
		t.Fatal("domain energies must be positive")
	}
	sum := r.PkgJ() + r.DramJ()
	if diff := sum/r.TotalJ - 1; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("domain sum %.1f != total %.1f", sum, r.TotalJ)
	}
	if r.AvgPowerW() <= 0 || r.DramPowerW() <= 0 {
		t.Fatal("powers must be positive")
	}
	if (Result{}).AvgPowerW() != 0 || (Result{}).DramPowerW() != 0 {
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

// TestRunAllocationBudget keeps a cell at its two allocations (the
// EnergyJ map): what the replays resolve per cell must stay on the stack.
func TestRunAllocationBudget(t *testing.T) {
	cfg := fullLoad(t, 144)
	for _, alg := range Algorithms() {
		for _, overlap := range []bool{true, false} {
			prm := Params{Overlap: overlap}
			if got := testing.AllocsPerRun(10, func() {
				if _, err := Run(alg, 1000, cfg, prm); err != nil {
					t.Fatal(err)
				}
			}); got > 2 {
				t.Errorf("%v overlap=%v: %v allocations per Run, want 2", alg, overlap, got)
			}
		}
	}
}
