package campaign

import (
	"runtime/debug"
	"testing"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime makes sync.Pool drop entries: allocation budgets do not apply.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestWarmPaperRunAllocationBudget bounds a warm replay of the paper
// campaign's analytic stages, what the campaign benchmark repeats sixteen
// times per op: per cell, a share of the grid's per-stage bookkeeping. A
// stage keeps no result, so a hit checks its payload without restoring
// it; the identity, its key and the store digest cost a hit nothing.
func TestWarmPaperRunAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	plan := Paper()
	var stages []Stage
	for _, s := range plan.Stages {
		if s.Name != "monitored-reference" && s.Name != "resilience" {
			stages = append(stages, s)
		}
	}
	plan.Stages = stages
	cells := plan.Cells()
	st := openStore(t, t.TempDir())
	opt := RunOptions{Workers: 2}
	if sum, err := Run(plan, st, opt); err != nil || sum.ComputedTotal != cells {
		t.Fatalf("cold run computed %d of %d cells: %v", sum.ComputedTotal, cells, err)
	}
	perCell := testing.AllocsPerRun(5, func() {
		if sum, err := Run(plan, st, opt); err != nil || sum.HitsTotal != cells {
			t.Fatalf("warm run served %d of %d cells: %v", sum.HitsTotal, cells, err)
		}
	}) / float64(cells)
	t.Logf("warm run of %d cells: %.2f allocations per cell", cells, perCell)
	if perCell > 0.25 {
		t.Errorf("a warm run costs %.2f allocations per cell, budget 0.25", perCell)
	}
}
