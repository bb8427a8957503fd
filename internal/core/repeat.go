package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/report"
)

// The repeatability study mirrors the paper's methodology of "ten
// repetitions for each job ... to achieve realistic values for comparison"
// (§5.1): each repetition is modelled under machine variability with its
// own deterministic noise seed, which is part of the analytic identity, so
// every repetition is a cell of its own. The noise moves only the energy
// integration, so an evaluator replays a cell's schedule once for all its
// repetitions.
const (
	repetitionReps        = 10
	repetitionVariability = 0.05
)

// repStats summarises the repetitions of one grid cell.
type repStats struct {
	Cell SweepKey

	MeanDurationS, MinDurationS, MaxDurationS float64
	MeanJ, MinJ, MaxJ                         float64
}

// SpreadJ is the relative energy spread (max−min)/mean.
func (r repStats) SpreadJ() float64 {
	if r.MeanJ == 0 {
		return 0
	}
	return (r.MaxJ - r.MinJ) / r.MeanJ
}

// repetitionKey is one repetition of one grid cell.
type repetitionKey struct {
	cell SweepKey
	rep  int
}

// String renders the repetition's coordinates for error messages.
func (k repetitionKey) String() string {
	return fmt.Sprintf("%v repetition %d", k.cell, k.rep+1)
}

// RepetitionStudy is the repeatability study as a cell set: both
// algorithms across the paper dimensions at 144 ranks full load, ten
// repetitions each under ±5% machine variability — the repeatability
// context §5.3 asks readers to keep in mind when interpreting mild
// differences. Collect renders the statistics as a table.
func RepetitionStudy(prm perfmodel.Params) CellSet[*report.Table] {
	var cells []SweepKey
	for _, alg := range perfmodel.Algorithms() {
		for _, n := range cluster.PaperMatrixDims() {
			cells = append(cells, SweepKey{Algorithm: alg, N: n, Ranks: 144, Placement: cluster.FullLoad})
		}
	}
	return repetitions(cells, prm, repetitionReps, repetitionVariability, func(stats []repStats) *report.Table {
		t := &report.Table{
			Title: fmt.Sprintf("Repeatability: %d repetitions, ±%.0f%% machine variability",
				repetitionReps, repetitionVariability*100),
			Headers: []string{"alg", "n", "ranks",
				"mean s", "min s", "max s", "mean J", "spread %"},
		}
		for _, st := range stats {
			t.Add(st.Cell.Algorithm.String(), st.Cell.N, st.Cell.Ranks,
				st.MeanDurationS, st.MinDurationS, st.MaxDurationS,
				st.MeanJ, st.SpreadJ()*100)
		}
		return t
	})
}

// repetitions is the set of reps repetitions of each cell under the
// machine variability, repetition r drawing noise seed r+1. Collect folds
// each cell's repetitions, in order, into its statistics and hands them
// to build in cell order.
func repetitions[R any](cells []SweepKey, prm perfmodel.Params, reps int, variability float64, build func([]repStats) R) CellSet[R] {
	var keys []repetitionKey
	for _, cell := range cells {
		for r := 0; r < reps; r++ {
			keys = append(keys, repetitionKey{cell, r})
		}
	}
	params := make([]perfmodel.Params, reps)
	models := make([][]byte, reps)
	for r := range params {
		params[r] = prm
		params[r].NodeVariability = variability
		params[r].NoiseSeed = int64(r + 1)
		models[r] = renderModel(params[r])
	}
	return gridCells(keys,
		func(ev *Evaluator, k repetitionKey) AnalyticCell {
			return AnalyticCell{E: k.cell.Experiment(), Params: params[k.rep], model: models[k.rep], replays: &ev.replays}
		},
		func(ms map[repetitionKey]Measurement) R {
			stats := make([]repStats, len(cells))
			for i, cell := range cells {
				st := repStats{Cell: cell, MinDurationS: math.Inf(1), MinJ: math.Inf(1)}
				for r := 0; r < reps; r++ {
					m := ms[repetitionKey{cell, r}]
					st.MeanDurationS += m.DurationS / float64(reps)
					st.MeanJ += m.TotalJ / float64(reps)
					st.MinDurationS = min(st.MinDurationS, m.DurationS)
					st.MaxDurationS = max(st.MaxDurationS, m.DurationS)
					st.MinJ = min(st.MinJ, m.TotalJ)
					st.MaxJ = max(st.MaxJ, m.TotalJ)
				}
				stats[i] = st
			}
			return build(stats)
		})
}
