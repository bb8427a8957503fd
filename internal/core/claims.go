package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
)

// The paper's findings (PAPER.md §1) as data: one Claim per finding, each
// a predicate over the full-grid Sweep that returns what was measured and
// a verdict. The shape tests of internal/perfmodel pin each verdict and
// EXPERIMENTS.md prints the table, so a finding is stated once, here.
//
// A claim checks two kinds of bound. A pin is a bound the reproduction
// promises; a violated pin fails the claim. A band is the paper's own
// number on the cells the paper names; a missed band, with every pin
// holding, is a deviation. Where the paper gives a shape and no number,
// the pins are the whole check.

// Verdict is a claim's outcome on a sweep.
type Verdict string

const (
	Holds              Verdict = "holds"                // every pin and the paper's band hold
	HoldsWithDeviation Verdict = "holds with deviation" // every pin holds, the band does not
	Fails              Verdict = "fails"                // a pin is violated
)

// Claim is one finding of the paper.
type Claim struct {
	ID string
	// Source is the figure or section of the paper that reports it;
	// Paper its wording.
	Source, Paper string
	// check records the claim's pins and bands on c and returns the
	// measured numbers.
	check func(c *claimCheck) string
}

// Finding is a claim evaluated on a sweep.
type Finding struct {
	Measured string
	Verdict  Verdict
	// Notes name each violated pin when the claim fails, otherwise each
	// miss of the paper's band.
	Notes []string
}

// Evaluate checks the claim on s, a sweep over SweepKeys. A cell s lacks
// is an error.
func (cl Claim) Evaluate(s *Sweep) (Finding, error) {
	c := &claimCheck{s: s}
	measured := cl.check(c) // fills c, so it runs before c is read
	f := Finding{Measured: measured, Verdict: Holds, Notes: c.misses}
	switch {
	case c.err != nil:
		return Finding{}, fmt.Errorf("core: claim %s: %w", cl.ID, c.err)
	case len(c.violations) > 0:
		f.Verdict, f.Notes = Fails, c.violations
	case len(c.misses) > 0:
		f.Verdict = HoldsWithDeviation
	}
	return f, nil
}

// claimCheck collects one evaluation's cells and outcomes.
type claimCheck struct {
	s                  *Sweep
	err                error
	violations, misses []string
}

// cell returns one cell of the sweep, recording the first missing one.
func (c *claimCheck) cell(alg perfmodel.Algorithm, n, ranks int, pl cluster.Placement) Measurement {
	m, err := c.s.Get(alg, n, ranks, pl)
	if err != nil && c.err == nil {
		c.err = err
	}
	return m
}

// full returns both algorithms' full-load cells, IMe first.
func (c *claimCheck) full(n, ranks int) (ime, ge Measurement) {
	return c.cell(perfmodel.IMe, n, ranks, cluster.FullLoad), c.cell(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
}

// eachCell calls f on every (n, ranks) of the paper grid.
func eachCell(f func(n, ranks int)) {
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			f(n, ranks)
		}
	}
}

// pin records a violation unless ok.
func (c *claimCheck) pin(ok bool, format string, args ...any) {
	if !ok {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// band records a miss of the paper's band unless ok.
func (c *claimCheck) band(ok bool, format string, args ...any) {
	if !ok {
		c.misses = append(c.misses, fmt.Sprintf(format, args...))
	}
}

// span is the range of a measured quantity.
type span struct {
	lo, hi float64
	n      int
}

func (s *span) add(v float64) {
	if s.n == 0 {
		s.lo, s.hi = v, v
	}
	s.lo, s.hi, s.n = math.Min(s.lo, v), math.Max(s.hi, v), s.n+1
}

// rng renders the span's ends, each scaled by k, in the verb.
func (s span) rng(verb string, k float64) string { return fmt.Sprintf(verb+"–"+verb, k*s.lo, k*s.hi) }

// pct renders a span of fractions as percentages.
func (s span) pct() string { return s.rng("%.1f", 100) + " %" }

// dramGap is IMe's extra DRAM power over ScaLAPACK's, both DRAM domains
// summed.
func dramGap(ime, ge Measurement) float64 {
	dram := func(m Measurement) float64 { return m.EnergyJ.Dram() / m.DurationS }
	return dram(ime)/dram(ge) - 1
}

// energyGap is ScaLAPACK's energy saving against IMe.
func energyGap(ime, ge Measurement) float64 { return 1 - ge.TotalJ/ime.TotalJ }

// Claims returns the paper's findings in PAPER.md §1 order. PAPER.md
// states growth and strong scaling as one finding; they are two claims
// here, because Fig. 4 and Fig. 5 check them on different cells.
func Claims() []Claim {
	dims, rankCounts := cluster.PaperMatrixDims(), cluster.PaperRankCounts()
	return []Claim{{
		ID: "full-load", Source: "Fig. 3",
		Paper: `"The full load configuration always consumes less than the other ones"`,
		check: func(c *claimCheck) string {
			var saving span
			for _, alg := range perfmodel.Algorithms() {
				eachCell(func(n, ranks int) {
					full := c.cell(alg, n, ranks, cluster.FullLoad).TotalJ
					one := c.cell(alg, n, ranks, cluster.HalfLoadOneSocket).TotalJ
					two := c.cell(alg, n, ranks, cluster.HalfLoadTwoSockets).TotalJ
					c.pin(full < one && full < two, "%v n=%d ranks=%d: full load %.0f J not below half loads %.0f/%.0f J",
						alg, n, ranks, full, one, two)
					saving.add(1 - full/one)
					saving.add(1 - full/two)
				})
			}
			return "full load saves " + saving.pct() + " against either half load, in every cell"
		},
	}, {
		ID: "half-load-sockets", Source: "§5.3",
		Paper: `one- vs two-socket half load: "the lines overlap multiple times… impossible to determine the best one"; ` +
			`in one-socket deployments "the energy consumption of one socket is 50-60% lower than the other" (idle socket 40–50 % of busy)`,
		check: func(c *claimCheck) string {
			var diff, idle, sym span
			for _, alg := range perfmodel.Algorithms() {
				eachCell(func(n, ranks int) {
					one := c.cell(alg, n, ranks, cluster.HalfLoadOneSocket)
					two := c.cell(alg, n, ranks, cluster.HalfLoadTwoSockets)
					d := one.TotalJ/two.TotalJ - 1
					c.pin(d >= -0.05 && d <= 0.05, "%v n=%d ranks=%d: one- vs two-socket differ by %.1f%%, want ≈equal", alg, n, ranks, d*100)
					// The packed socket's quadratic uncore load makes the
					// one-socket variant marginally more expensive.
					c.pin(one.TotalJ > two.TotalJ, "%v n=%d ranks=%d: one-socket %.1f J not above two-socket %.1f J",
						alg, n, ranks, one.TotalJ, two.TotalJ)
					frac := one.EnergyJ[rapl.PKG1] / one.EnergyJ[rapl.PKG0]
					c.band(frac >= 0.40 && frac <= 0.50, "%v n=%d ranks=%d: idle/busy package energy %.3f, paper 0.40–0.50", alg, n, ranks, frac)
					diff.add(d)
					idle.add(frac)
					sym.add(two.EnergyJ[rapl.PKG1] / two.EnergyJ[rapl.PKG0])
				})
			}
			one := c.cell(perfmodel.IMe, 17280, 144, cluster.HalfLoadOneSocket)
			frac := one.EnergyJ[rapl.PKG1] / one.EnergyJ[rapl.PKG0]
			c.pin(frac >= 0.38 && frac <= 0.52, "IMe n=17280 ranks=144: idle/busy package energy = %.2f, want 0.40–0.50", frac)
			two := c.cell(perfmodel.IMe, 17280, 144, cluster.HalfLoadTwoSockets)
			c.pin(two.EnergyJ[rapl.PKG0] > two.EnergyJ[rapl.PKG1], "IMe n=17280 ranks=144: package 0 should exceed package 1 at equal load")
			return fmt.Sprintf("one socket costs %s %% more than two; idle/busy package energy %s; pkg1/pkg0 %s at equal load",
				diff.rng("%.2f", 100), idle.rng("%.3f", 1), sym.rng("%.3f", 1))
		},
	}, {
		ID: "matrix-growth", Source: "Fig. 4",
		Paper: `energy and duration increase with the matrix dimension, "seems to be exponential"`,
		check: func(c *claimCheck) string {
			measured := "energy and duration rise with n at every rank count; energy from n = 8640 to 17280 at 144 ranks:"
			for _, alg := range perfmodel.Algorithms() {
				for _, ranks := range rankCounts {
					for i := 1; i < len(dims); i++ {
						prev, cur := c.cell(alg, dims[i-1], ranks, cluster.FullLoad), c.cell(alg, dims[i], ranks, cluster.FullLoad)
						c.pin(cur.DurationS > prev.DurationS, "%v ranks=%d: duration not increasing %d→%d", alg, ranks, dims[i-1], dims[i])
						c.pin(cur.TotalJ > prev.TotalJ, "%v ranks=%d: energy not increasing %d→%d", alg, ranks, dims[i-1], dims[i])
					}
				}
				// Superlinear: dimension ×2 must raise energy by far more
				// than ×2 on the compute-bound 144-rank deployment.
				e := c.cell(alg, 17280, 144, cluster.FullLoad).TotalJ / c.cell(alg, 8640, 144, cluster.FullLoad).TotalJ
				c.pin(e >= 3, "%v: energy growth 8640→17280 = %.1f×, want superlinear (>3×)", alg, e)
				measured += fmt.Sprintf(" ×%.2f (%v)", e, alg)
			}
			return measured
		},
	}, {
		ID: "strong-scaling", Source: "Fig. 5",
		Paper: "strong scalability: duration decreases with the rank count",
		check: func(c *claimCheck) string {
			var speedup span
			for _, alg := range perfmodel.Algorithms() {
				for _, n := range dims {
					for i := 1; i < len(rankCounts); i++ {
						prev, cur := c.cell(alg, n, rankCounts[i-1], cluster.FullLoad).DurationS, c.cell(alg, n, rankCounts[i], cluster.FullLoad).DurationS
						// The smallest matrix flattens out at extreme rank
						// counts, where communication dominates: the pin
						// holds from 17280 up, the paper's claim everywhere.
						c.pin(n < 17280 || cur < prev, "%v n=%d: duration %d ranks (%.3f) not below %d ranks (%.3f)",
							alg, n, rankCounts[i], cur, rankCounts[i-1], prev)
						c.band(cur < prev, "%v n=%d: duration rises from %.3f s at %d ranks to %.3f s at %d", alg, n, prev, rankCounts[i-1], cur, rankCounts[i])
					}
					speedup.add(c.cell(alg, n, 144, cluster.FullLoad).DurationS / c.cell(alg, n, 1296, cluster.FullLoad).DurationS)
				}
			}
			return "duration falls ×" + speedup.rng("%.2f", 1) + " from 144 to 1296 ranks"
		},
	}, {
		ID: "crossover", Source: "Fig. 5",
		Paper: `"ScaLAPACK is faster in the more dense computations, whilst IMe is faster … like for 576 and 1296 ranks for matrix dimensions 8640 and 17280"`,
		check: func(c *claimCheck) string {
			// (25920, 1296) is borderline distributed and lands on IMe's
			// side in this calibration; the paper does not report it.
			imeWins := map[[2]int]bool{{8640, 576}: true, {8640, 1296}: true, {17280, 576}: true, {17280, 1296}: true, {25920, 1296}: true}
			measured := "IMe is faster at"
			eachCell(func(n, ranks int) {
				ime, ge := c.full(n, ranks)
				got := ime.DurationS < ge.DurationS
				c.pin(got == imeWins[[2]int{n, ranks}], "n=%d ranks=%d: IMe %.3fs vs ScaLAPACK %.3fs — faster=%v, want IMe-faster=%v",
					n, ranks, ime.DurationS, ge.DurationS, got, imeWins[[2]int{n, ranks}])
				if (n == 8640 || n == 17280) && ranks != 144 {
					c.band(got, "n=%d ranks=%d: ScaLAPACK is faster where the paper names IMe", n, ranks)
				}
				c.band(ranks != 144 || !got, "n=%d ranks=%d: IMe is faster on the dense deployment", n, ranks)
				if got {
					measured += fmt.Sprintf(" (%d, %d)", n, ranks)
				}
			})
			// The ≈2× duration ratio on the densest deployment, consistent
			// with §5.4's energy/power arithmetic.
			ime, ge := c.full(34560, 144)
			ratio := ime.DurationS / ge.DurationS
			c.pin(ratio >= 1.6 && ratio <= 2.3, "dense IMe/ScaLAPACK duration ratio = %.2f, want ≈2", ratio)
			return fmt.Sprintf("%s, ScaLAPACK elsewhere; IMe/ScaLAPACK duration ×%.2f at (34560, 144)", measured, ratio)
		},
	}, {
		ID: "energy-gap", Source: "§5.4, Fig. 4",
		Paper: `ScaLAPACK consumes 50–60 % less energy than IMe, "the energy consumption of IMe is always equal to or higher than ScaLAPACK", ` +
			`and the gap "tends to decrease with an increase in the number of ranks and a decrease in the matrix dimension"`,
		check: func(c *claimCheck) string {
			g := func(n, ranks int) float64 { return energyGap(c.full(n, ranks)) }
			// Dense cells: all 144-rank cells and everything at n ≥ 25920
			// except the borderline (25920, 1296).
			for _, k := range [][2]int{{8640, 144}, {17280, 144}, {25920, 144}, {34560, 144}, {17280, 576}, {25920, 576}, {34560, 576}, {34560, 1296}} {
				ime, ge := c.full(k[0], k[1])
				c.pin(ge.TotalJ < ime.TotalJ, "n=%d ranks=%d: ScaLAPACK energy %.0f J not below IMe %.0f J", k[0], k[1], ge.TotalJ, ime.TotalJ)
			}
			// The headline gap at the big compute-bound cells.
			var headline span
			for _, k := range [][2]int{{25920, 144}, {34560, 144}} {
				gap := g(k[0], k[1])
				c.pin(gap >= 0.45 && gap <= 0.62, "n=%d ranks=%d: energy gap %.0f%%, want ≈50–60%%", k[0], k[1], gap*100)
				c.band(gap >= 0.50 && gap <= 0.60, "n=%d ranks=%d: energy gap %.1f %%, paper 50–60 %%", k[0], k[1], gap*100)
				headline.add(gap)
			}
			c.pin(g(34560, 144) > g(34560, 576) && g(34560, 576) > g(34560, 1296), "energy gap does not decrease with rank count at n=34560")
			c.pin(g(34560, 144) > g(8640, 144), "energy gap does not decrease with matrix size at 144 ranks")
			eachCell(func(n, ranks int) {
				c.band(g(n, ranks) >= 0, "n=%d ranks=%d: IMe uses %.1f %% less energy than ScaLAPACK", n, ranks, -100*g(n, ranks))
			})
			return fmt.Sprintf("ScaLAPACK saves %s at 144 ranks, n ≥ 25920; at n = 34560 the gap falls %.1f → %.1f → %.1f %% "+
				"over 144 → 576 → 1296 ranks, and at 144 ranks to %.1f %% at n = 8640",
				headline.pct(), 100*g(34560, 144), 100*g(34560, 576), 100*g(34560, 1296), 100*g(8640, 144))
		},
	}, {
		ID: "power-gap", Source: "Figs. 6, 7, §5.4",
		Paper: `"the power values of IMe and ScaLAPACK differ by 12% to 18%"; the DRAM gap is "even more significant", up to 42 % at 144 ranks`,
		check: func(c *claimCheck) string {
			var total, dram, dram144 span
			eachCell(func(n, ranks int) {
				ime, ge := c.full(n, ranks)
				gap, dgap := ime.AvgPowerW()/ge.AvgPowerW()-1, dramGap(ime, ge)
				// The pin covers the compute-bound cells; the most
				// communication-bound ones sit below the band because
				// polling power is algorithm-independent.
				c.pin(n < 17280 || (gap >= 0.10 && gap <= 0.20), "n=%d ranks=%d: power gap %.1f%%, want 12–18%%", n, ranks, gap*100)
				c.band(gap >= 0.12 && gap <= 0.18, "n=%d ranks=%d: power gap %.1f %%, paper 12–18 %%", n, ranks, gap*100)
				c.pin(dgap > gap, "n=%d ranks=%d: DRAM gap %.0f%% not above total gap %.0f%%", n, ranks, dgap*100, gap*100)
				if ranks == 144 {
					c.band(dgap <= 0.42, "n=%d ranks=%d: DRAM power gap %.1f %%, paper up to 42 %%", n, ranks, dgap*100)
					dram144.add(dgap)
				}
				total.add(gap)
				dram.add(dgap)
			})
			dgap := dramGap(c.full(34560, 144))
			c.pin(dgap >= 0.35 && dgap <= 0.55, "DRAM power gap at (34560,144) = %.0f%%, want ≈42%%", dgap*100)
			return fmt.Sprintf("IMe draws %s more power; its DRAM power gap is %s (%s at 144 ranks), above the total gap in every cell",
				total.pct(), dram.pct(), dram144.pct())
		},
	}, {
		ID: "power-shape", Source: "Figs. 6, 7",
		Paper: `power is "a constant almost horizontal line between the various matrix sizes" ` +
			`and "strongly follow[s] a directly proportional course" with the rank count`,
		check: func(c *claimCheck) string {
			var spread, x4, x9 span
			for _, alg := range perfmodel.Algorithms() {
				p := func(n, ranks int) float64 { return c.cell(alg, n, ranks, cluster.FullLoad).AvgPowerW() }
				for _, ranks := range rankCounts {
					var w span
					for _, n := range dims {
						w.add(p(n, ranks))
					}
					c.pin(w.hi/w.lo <= 1.20, "%v ranks=%d: power spans %.0f–%.0f W (%.0f%%), want nearly flat", alg, ranks, w.lo, w.hi, (w.hi/w.lo-1)*100)
					spread.add(w.hi/w.lo - 1)
				}
				for _, n := range dims {
					r4, r9 := p(n, 576)/p(n, 144), p(n, 1296)/p(n, 144)
					c.pin(r4 >= 3.2 && r4 <= 4.8, "%v n=%d: power(576)/power(144) = %.2f, want ≈4", alg, n, r4)
					c.pin(r9 >= 7.2 && r9 <= 10.8, "%v n=%d: power(1296)/power(144) = %.2f, want ≈9", alg, n, r9)
					x4.add(r4)
					x9.add(r9)
				}
			}
			return fmt.Sprintf("power varies by at most %.1f %% across n at fixed ranks; it grows %s from 144 to 576 ranks (ideal ×4) "+
				"and %s from 144 to 1296 (ideal ×9)", 100*spread.hi, "×"+x4.rng("%.2f", 1), "×"+x9.rng("%.2f", 1))
		},
	}}
}
