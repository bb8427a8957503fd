package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// repeated collects reps repetitions of one cell through ev and returns
// their statistics.
func repeated(t *testing.T, ev *Evaluator, cell SweepKey, prm perfmodel.Params, reps int, variability float64) repStats {
	t.Helper()
	stats, err := repetitions([]SweepKey{cell}, prm, reps, variability,
		func(s []repStats) []repStats { return s }).Collect(ev)
	if err != nil {
		t.Fatal(err)
	}
	return stats[0]
}

func TestRunRepeatedAnalyticStats(t *testing.T) {
	cell := SweepKey{
		Algorithm: perfmodel.ScaLAPACK,
		N:         17280,
		Ranks:     144,
		Placement: cluster.FullLoad,
	}
	base, err := RunAnalytic(cell.Experiment(), perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	st := repeated(t, &Evaluator{Runner: grid.New(2)}, cell, perfmodel.Params{Overlap: true}, 10, 0.05)
	if st.MinJ > st.MeanJ || st.MeanJ > st.MaxJ {
		t.Fatalf("ordering broke: min %g mean %g max %g", st.MinJ, st.MeanJ, st.MaxJ)
	}
	if st.MinJ == st.MaxJ {
		t.Fatal("variability produced identical repetitions")
	}
	// Mean within the variability band of the noise-free run.
	if math.Abs(st.MeanJ-base.TotalJ)/base.TotalJ > 0.10 {
		t.Fatalf("mean %g drifted from noise-free %g", st.MeanJ, base.TotalJ)
	}
	// Spread bounded by roughly twice the per-run variability of both
	// duration and power.
	if st.SpreadJ() > 0.25 {
		t.Fatalf("energy spread %.1f%% too large for ±5%% variability", st.SpreadJ()*100)
	}
	if st.MinDurationS >= st.MaxDurationS {
		t.Fatal("durations show no spread")
	}
}

func TestRunRepeatedDeterministic(t *testing.T) {
	cell := SweepKey{
		Algorithm: perfmodel.IMe,
		N:         8640,
		Ranks:     144,
		Placement: cluster.FullLoad,
	}
	a := repeated(t, &Evaluator{Runner: grid.New(1)}, cell, perfmodel.Params{Overlap: true}, 5, 0.04)
	b := repeated(t, &Evaluator{Runner: grid.New(4)}, cell, perfmodel.Params{Overlap: true}, 5, 0.04)
	if a != b {
		t.Fatalf("repetition study not reproducible across worker counts:\n%+v\n%+v", a, b)
	}
}

// TestRepetitionStudyTable renders the study lsbench and the campaign
// share: one row per cell, ten cells each.
func TestRepetitionStudyTable(t *testing.T) {
	study := RepetitionStudy(perfmodel.Params{Overlap: true})
	if study.Len() != 80 {
		t.Fatalf("study evaluates %d cells, want 8 × 10", study.Len())
	}
	ev := &Evaluator{Runner: grid.New(2)}
	tab, err := study.Collect(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tab.Rows))
	}
	if computed, hits := ev.Counts(); computed != study.Len() || hits != 0 {
		t.Fatalf("storeless study computed %d, hit %d; want %d/0", computed, hits, study.Len())
	}
}

func TestZeroVariabilityReproducesExactly(t *testing.T) {
	cell := SweepKey{
		Algorithm: perfmodel.IMe,
		N:         8640,
		Ranks:     144,
		Placement: cluster.FullLoad,
	}
	st := repeated(t, &Evaluator{Runner: grid.New(2)}, cell, perfmodel.Params{Overlap: true}, 4, 0)
	if st.MinJ != st.MaxJ || st.MinDurationS != st.MaxDurationS {
		t.Fatal("zero variability must give identical repetitions")
	}
}
