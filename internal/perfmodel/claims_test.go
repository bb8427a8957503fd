package perfmodel_test

// The shape tests pin the calibrated model to the paper's findings
// (PAPER.md §1), each stated once as a core.Claim. A test asserts the
// verdict its claims carry today: a model change that breaks a pinned
// bound turns a claim to "fails", and one that moves a claim into or out
// of the paper's own band changes its verdict; either fails a test here.

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// pinned is every claim's verdict on the paper grid.
var pinned = map[string]core.Verdict{
	"full-load":         core.Holds,
	"half-load-sockets": core.Holds,
	"matrix-growth":     core.Holds,
	"strong-scaling":    core.HoldsWithDeviation,
	"crossover":         core.Holds,
	"energy-gap":        core.HoldsWithDeviation,
	"power-gap":         core.HoldsWithDeviation,
	"power-shape":       core.Holds,
}

// assertClaims evaluates the named claims on the paper grid and fails
// each whose verdict is not the pinned one.
func assertClaims(t *testing.T, ids ...string) {
	t.Helper()
	s, err := core.SweepCells(core.SweepKeys(), perfmodel.Params{Overlap: true}).Collect(&core.Evaluator{Runner: grid.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	claims := core.Claims()
	for _, id := range ids {
		i := slices.IndexFunc(claims, func(c core.Claim) bool { return c.ID == id })
		if i < 0 {
			t.Fatalf("no claim %q", id)
		}
		f, err := claims[i].Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		if f.Verdict != pinned[id] {
			t.Errorf("%s: %v, want %v\nmeasured: %s", id, f.Verdict, pinned[id], f.Measured)
			for _, note := range f.Notes {
				t.Errorf("%s: %s", id, note)
			}
		}
	}
}

func TestEveryClaimIsPinned(t *testing.T) {
	if claims := core.Claims(); len(claims) != len(pinned) {
		t.Errorf("%d claims, %d pinned verdicts", len(claims), len(pinned))
	}
}

func TestFigure3FullVsHalfLoad(t *testing.T) { assertClaims(t, "full-load", "half-load-sockets") }

func TestSocketImbalance(t *testing.T) { assertClaims(t, "half-load-sockets") }

func TestFigure4EnergyAndTimeGrowWithMatrix(t *testing.T) { assertClaims(t, "matrix-growth") }

func TestFigure5StrongScaling(t *testing.T) { assertClaims(t, "strong-scaling") }

func TestFigure5Crossover(t *testing.T) { assertClaims(t, "crossover") }

func TestDenseDurationRatio(t *testing.T) { assertClaims(t, "crossover") }

func TestEnergyComparison(t *testing.T) { assertClaims(t, "energy-gap") }

func TestFigure6PowerFlatAndGap(t *testing.T) { assertClaims(t, "power-gap", "power-shape") }

func TestFigure7PowerProportionalToRanks(t *testing.T) { assertClaims(t, "power-shape") }

func TestDramPowerGap(t *testing.T) { assertClaims(t, "power-gap") }

func TestClaimOverMissingCellsIsAnError(t *testing.T) {
	for _, c := range core.Claims() {
		if _, err := c.Evaluate(&core.Sweep{}); err == nil {
			t.Errorf("%s: evaluated over an empty sweep", c.ID)
		}
	}
}
