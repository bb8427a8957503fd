package core

import (
	"fmt"
	"math"

	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/store"
)

// RepStats summarises repeated runs of one experiment, mirroring the
// paper's methodology of "ten repetitions for each job ... to achieve
// realistic values for comparison" (§5.1).
type RepStats struct {
	Experiment Experiment
	Reps       int

	MeanDurationS, MinDurationS, MaxDurationS float64
	MeanJ, MinJ, MaxJ                         float64
}

// SpreadJ is the relative energy spread (max−min)/mean.
func (r RepStats) SpreadJ() float64 {
	if r.MeanJ == 0 {
		return 0
	}
	return (r.MaxJ - r.MinJ) / r.MeanJ
}

// RunRepeatedAnalytic models reps repetitions of an experiment under the
// given machine variability, each with a distinct deterministic noise
// seed, and folds them into statistics.
func RunRepeatedAnalytic(e Experiment, prm perfmodel.Params, reps int, variability float64) (RepStats, error) {
	stats, _, err := RunRepeatedAnalyticStored(e, prm, reps, variability, nil)
	return stats, err
}

// RunRepeatedAnalyticStored is RunRepeatedAnalytic with each repetition
// memoized as its own cell (repetitions differ only in their noise seed,
// which is part of the analytic identity); computed counts the
// repetitions that ran the model.
func RunRepeatedAnalyticStored(e Experiment, prm perfmodel.Params, reps int, variability float64, est *store.Store) (RepStats, int, error) {
	if reps <= 0 {
		return RepStats{}, 0, fmt.Errorf("core: repetition count %d must be positive", reps)
	}
	st := RepStats{
		Experiment:   e,
		Reps:         reps,
		MinDurationS: math.Inf(1),
		MinJ:         math.Inf(1),
	}
	computed := 0
	for r := 0; r < reps; r++ {
		p := prm
		p.NodeVariability = variability
		p.NoiseSeed = int64(r + 1)
		m, ran, err := RunAnalyticStored(e, p, est)
		if err != nil {
			return RepStats{}, computed, err
		}
		if ran {
			computed++
		}
		st.MeanDurationS += m.DurationS / float64(reps)
		st.MeanJ += m.TotalJ / float64(reps)
		if m.DurationS < st.MinDurationS {
			st.MinDurationS = m.DurationS
		}
		if m.DurationS > st.MaxDurationS {
			st.MaxDurationS = m.DurationS
		}
		if m.TotalJ < st.MinJ {
			st.MinJ = m.TotalJ
		}
		if m.TotalJ > st.MaxJ {
			st.MaxJ = m.TotalJ
		}
	}
	return st, computed, nil
}

// RepetitionStudy renders repetition statistics for both algorithms at a
// set of grid cells — the repeatability context §5.3 asks readers to keep
// in mind when interpreting mild differences.
func RepetitionStudy(cells []SweepKey, prm perfmodel.Params, reps int, variability float64) (*report.Table, error) {
	t, _, err := RepetitionStudyStored(cells, prm, reps, variability, nil)
	return t, err
}

// RepetitionStudyStored is RepetitionStudy with each repetition memoized
// in the experiment store; computed counts the repetitions that ran.
func RepetitionStudyStored(cells []SweepKey, prm perfmodel.Params, reps int, variability float64, est *store.Store) (*report.Table, int, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Repeatability: %d repetitions, ±%.0f%% machine variability", reps, variability*100),
		Headers: []string{"alg", "n", "ranks",
			"mean s", "min s", "max s", "mean J", "spread %"},
	}
	computed := 0
	for _, cell := range cells {
		e := Experiment{Algorithm: cell.Algorithm, N: cell.N, Ranks: cell.Ranks, Placement: cell.Placement}
		st, ran, err := RunRepeatedAnalyticStored(e, prm, reps, variability, est)
		if err != nil {
			return nil, computed, err
		}
		computed += ran
		t.Add(cell.Algorithm.String(), cell.N, cell.Ranks,
			st.MeanDurationS, st.MinDurationS, st.MaxDurationS,
			st.MeanJ, st.SpreadJ()*100)
	}
	return t, computed, nil
}
