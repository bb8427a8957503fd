// Package campaign is the orchestrator over the content-addressed
// experiment store: a campaign declares *what cells must exist* — staged
// cell sets (the paper grid, its ablations, scaling sweeps, monitored
// references, resilience studies), each defined once in internal/core —
// and Run makes them exist with store-backed memoization across the
// internal/grid worker pool. A cell already in the store is a hit and
// skips compute entirely; a miss computes and appends. Because progress
// lives in the append-only store rather than in process state, an
// interrupted campaign resumes with zero lost work: the next run re-hits
// every completed cell and computes only the remainder.
//
// Artifacts (the paper's figure tables, EXPERIMENTS.md) are then emitted
// *from* the store: they collect the same cell sets through an evaluator
// that refuses every compute, so a missing cell is an error naming it and
// emission never writes to the store. Each carries a provenance header
// naming the store digest and record count it was read from.
package campaign

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// Stage is one named cell set of a campaign.
type Stage struct {
	Name string
	// Cells is the number of cell evaluations the stage makes.
	Cells int
	run   func(ev *core.Evaluator) error
}

// stage declares a campaign stage that runs one of core's cell sets.
func stage[R any](name string, cells core.CellSet[R]) Stage {
	return Stage{Name: name, Cells: cells.Len(), run: cells.Run}
}

// Campaign is a staged experiment plan.
type Campaign struct {
	Name        string
	Description string
	Stages      []Stage
}

// Cells sums the stages' cell counts.
func (c Campaign) Cells() int {
	total := 0
	for _, s := range c.Stages {
		total += s.Cells
	}
	return total
}

// ResilienceSeed is the crash-schedule seed of the paper campaign's
// resilience stage — the same seed lsbench's -faults artifact and the
// EXPERIMENTS.md table default to.
const ResilienceSeed = 5

// paperGridParams are the model parameters of the paper-grid stage:
// exactly what `lsbench -figure all` evaluates (overlap on, uncapped,
// default block size).
func paperGridParams() perfmodel.Params { return perfmodel.Params{Overlap: true} }

// PowerCaps are the §6 future-work cap points the paper campaign sweeps.
func PowerCaps() []float64 { return []float64{110, 130} }

// paperGrid is the 72-cell §5.1 evaluation grid under prm.
func paperGrid(prm perfmodel.Params) core.CellSet[*core.Sweep] {
	return core.SweepCells(core.SweepKeys(), prm)
}

// sparseParams are the sparse grid's model parameters: strictly the
// defaults. The sparse model has no overlap, block-size or power-cap
// semantics, and every consumer — this stage, `lsbench -figure sparse`,
// advisord's matrix=sparse path — models at defaults so the cells share
// one store identity.
func sparseParams() perfmodel.Params { return perfmodel.Params{} }

// Paper returns the full paper campaign: the evaluation grid and its
// ablations, the §6 power-cap sweep, the §5.1 repetition study, the
// exact-engine references, the fault-tolerance sweep, and the sparse
// device grid. The sparse stage comes last so budget-interrupted runs
// stop inside the same dense stages they always did.
func Paper() Campaign {
	return Campaign{
		Name:        "paper",
		Description: "full paper evaluation: grid, overlap ablation, power caps, repetitions, monitored references, resilience, sparse device grid",
		Stages: []Stage{
			stage("paper-grid", paperGrid(paperGridParams())),
			stage("overlap-ablation", paperGrid(perfmodel.Params{})),
			stage("power-cap-110", paperGrid(perfmodel.Params{Overlap: true, PowerCapW: PowerCaps()[0]})),
			stage("power-cap-130", paperGrid(perfmodel.Params{Overlap: true, PowerCapW: PowerCaps()[1]})),
			stage("repetitions", core.RepetitionStudy(paperGridParams())),
			stage("monitored-reference", core.MonitoredReferences()),
			stage("resilience", core.ResilienceSweep(0, ResilienceSeed)),
			stage("sparse-grid", core.SparseSweepCells(sparseParams())),
		},
	}
}

// ScalingDims are the off-grid matrix dimensions of the scaling campaign.
func ScalingDims() []int { return []int{4320, 12960, 21600, 30240} }

// scalingKeys are the full-load cells of every paper rank count at the
// given matrix dimensions.
func scalingKeys(dims []int) []core.SweepKey {
	var keys []core.SweepKey
	for _, n := range dims {
		for _, ranks := range cluster.PaperRankCounts() {
			for _, alg := range perfmodel.Algorithms() {
				keys = append(keys, core.SweepKey{Algorithm: alg, N: n, Ranks: ranks, Placement: cluster.FullLoad})
			}
		}
	}
	return keys
}

// Scaling returns the scaling campaign: strong-scaling cells between and
// beyond the paper's dimensions, full-load placements only.
func Scaling() Campaign {
	return Campaign{
		Name:        "scaling",
		Description: "strong-scaling sweep at off-grid matrix dimensions (full load)",
		Stages:      []Stage{stage("scaling-grid", core.SweepCells(scalingKeys(ScalingDims()), paperGridParams()))},
	}
}

// Registry lists every declared campaign by name.
func Registry() map[string]Campaign {
	return map[string]Campaign{
		"paper":   Paper(),
		"scaling": Scaling(),
	}
}

// Lookup resolves a campaign by name.
func Lookup(name string) (Campaign, error) {
	c, ok := Registry()[name]
	if !ok {
		return Campaign{}, fmt.Errorf("campaign: unknown campaign %q (want paper or scaling)", name)
	}
	return c, nil
}
