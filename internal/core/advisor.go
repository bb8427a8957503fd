package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

// The advisor is the paper's motivating use case made executable: "Being
// aware of these results, programmers could take informed decisions to
// augment the energy efficiency of linear systems resolutions" (§1). Given
// a job shape, it models both solvers and recommends one under a chosen
// objective.

// Objective selects what the advisor optimises.
type Objective int

const (
	// MinEnergy picks the lower total energy (the green choice).
	MinEnergy Objective = iota
	// MinTime picks the shorter duration.
	MinTime
	// MaxEfficiency picks the higher flops-per-watt (the Green500 metric).
	MaxEfficiency
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "min-energy"
	case MinTime:
		return "min-time"
	case MaxEfficiency:
		return "max-gflops-per-watt"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Objectives lists all advisor objectives.
func Objectives() []Objective {
	return []Objective{MinEnergy, MinTime, MaxEfficiency}
}

// ParseObjective is the inverse of Objective.String, for request-driven
// callers (the advisor service) that receive objectives as text.
func ParseObjective(s string) (Objective, error) {
	for _, o := range Objectives() {
		if s == o.String() {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: unknown objective %q (want min-energy, min-time or max-gflops-per-watt)", s)
}

// Recommendation is the advisor's verdict for one job shape.
type Recommendation struct {
	Objective Objective
	Best      perfmodel.Algorithm
	IMe       Measurement
	ScaLAPACK Measurement
	// Margin is how much better the winner is on the objective metric
	// (e.g. 0.35 = 35% less energy / less time / more efficiency).
	Margin float64
}

// Recommend models both solvers for the job shape and picks a winner.
func Recommend(n, ranks int, placement cluster.Placement, objective Objective, prm perfmodel.Params) (Recommendation, error) {
	rec, _, err := RecommendStored(n, ranks, placement, objective, prm, nil)
	return rec, err
}

// RecommendStored is Recommend with store-backed memoization of the two
// solver cells; computed counts the evaluations that ran (0, 1 or 2).
// The verdict goes through Rank, the same single ranking function the
// surrogate path uses, so a store-served recommendation can never differ
// from a freshly computed one.
func RecommendStored(n, ranks int, placement cluster.Placement, objective Objective, prm perfmodel.Params, st *store.Store) (Recommendation, int, error) {
	e := Experiment{Algorithm: perfmodel.IMe, N: n, Ranks: ranks, Placement: placement}
	g := e
	g.Algorithm = perfmodel.ScaLAPACK
	imeM, geM, computed, err := runBoth(st, AnalyticCell{E: e, Params: prm}, AnalyticCell{E: g, Params: prm})
	if err != nil {
		return Recommendation{Objective: objective}, computed, err
	}
	rec, err := Rank(imeM, geM, objective)
	return rec, computed, err
}

// Rank picks the winner between two measurements of the same job shape —
// one per solver — under the objective. Both the analytic path
// (Recommend) and the learned-surrogate serving path rank through this
// single function, so a fast path can never apply different verdict
// logic, only different measurements.
func Rank(imeM, geM Measurement, objective Objective) (Recommendation, error) {
	best, margin, err := verdict(objective,
		score{imeM.TotalJ, imeM.DurationS, imeM.GFlopsPerWatt()}, perfmodel.IMe,
		score{geM.TotalJ, geM.DurationS, geM.GFlopsPerWatt()}, perfmodel.ScaLAPACK)
	return Recommendation{Objective: objective, Best: best, IMe: imeM, ScaLAPACK: geM, Margin: margin}, err
}

// score is what the verdict rule reads of one candidate.
type score struct {
	totalJ, durationS, gflopsPerWatt float64
}

// verdict is the one ranking rule both advisors share: it reads the
// objective's metric off each candidate (smaller wins; efficiency is
// inverted) and names the winner and its relative margin. A tie goes to
// the second candidate.
func verdict[C any](objective Objective, a score, first C, b score, second C) (best C, margin float64, err error) {
	var x, y float64
	switch objective {
	case MinEnergy:
		x, y = a.totalJ, b.totalJ
	case MinTime:
		x, y = a.durationS, b.durationS
	case MaxEfficiency:
		x, y = 1/a.gflopsPerWatt, 1/b.gflopsPerWatt
	default:
		return best, 0, fmt.Errorf("core: unknown objective %v", objective)
	}
	if x < y {
		return first, 1 - x/y, nil
	}
	return second, 1 - y/x, nil
}
