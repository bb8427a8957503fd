// Package campaign is the orchestrator over the content-addressed
// experiment store: a campaign declares *what cells must exist* — staged
// sets of experiment cells (the paper grid, its ablations, scaling
// sweeps, monitored references, resilience studies) — and Run makes them
// exist with store-backed memoization across the internal/grid worker
// pool. A cell already in the store is a hit and skips compute entirely;
// a miss computes and appends. Because progress lives in the append-only
// store rather than in process state, an interrupted campaign resumes
// with zero lost work: the next run re-hits every completed cell and
// computes only the remainder.
//
// Artifacts (the paper's figure tables, EXPERIMENTS.md) are then emitted
// *from* the store — strictly, never computing — with provenance headers
// naming the store digest and record count they were read from.
package campaign

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// Stage is one named cell set of a campaign.
type Stage struct {
	Name string
	// Cells is the stage's cell count, advertised for listings; the
	// authoritative counts come from running it.
	Cells int
	run   func(rc *Context) error
}

// Campaign is a staged experiment plan.
type Campaign struct {
	Name        string
	Description string
	Stages      []Stage
}

// Cells sums the advertised cell counts across stages.
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

// repetitionCells returns the repeatability study's grid cells — both
// algorithms across the paper dimensions at 144 ranks full load, the
// cells lsbench's -figure repetitions folds statistics over.
func repetitionCells() []core.SweepKey {
	var cells []core.SweepKey
	for _, alg := range perfmodel.Algorithms() {
		for _, n := range cluster.PaperMatrixDims() {
			cells = append(cells, core.SweepKey{
				Algorithm: alg, N: n, Ranks: 144, Placement: cluster.FullLoad,
			})
		}
	}
	return cells
}

const (
	// RepetitionReps and RepetitionVariability mirror the paper's "ten
	// repetitions for each job" under ±5% machine variability.
	RepetitionReps        = 10
	RepetitionVariability = 0.05
)

// monitoredReferences are the paper campaign's exact-engine runs: the
// observability reference cell (both monitored phases) and one
// full-load node per solver at the largest order the monitored engine
// covers in reasonable time.
func monitoredReferences() []core.Experiment {
	return []core.Experiment{
		{Algorithm: perfmodel.IMe, N: 96, Ranks: 24, Placement: cluster.HalfLoadTwoSockets, Seed: 1, Phase: core.PhaseGeneral},
		{Algorithm: perfmodel.IMe, N: 96, Ranks: 24, Placement: cluster.HalfLoadTwoSockets, Seed: 1, Phase: core.PhaseCompute},
		{Algorithm: perfmodel.IMe, N: 384, Ranks: 48, Placement: cluster.FullLoad, Seed: 7, BlockSize: 16},
		{Algorithm: perfmodel.ScaLAPACK, N: 384, Ranks: 48, Placement: cluster.FullLoad, Seed: 7, BlockSize: 16},
	}
}

// gridStage declares one full 72-cell paper grid under the given params.
func gridStage(name string, prm perfmodel.Params) Stage {
	keys := core.SweepKeys()
	return Stage{
		Name:  name,
		Cells: len(keys),
		run: func(rc *Context) error {
			_, err := grid.Map(rc.runner, len(keys), func(i int) (struct{}, error) {
				return struct{}{}, evalCell(rc, core.AnalyticCell{E: keys[i].Experiment(), Params: prm})
			})
			return err
		},
	}
}

// scalingStage declares a strong-scaling sweep over extra matrix
// dimensions off the paper grid (full-load placements).
func scalingStage(name string, dims []int) Stage {
	type cell struct {
		alg   perfmodel.Algorithm
		n     int
		ranks int
	}
	var cells []cell
	for _, n := range dims {
		for _, ranks := range cluster.PaperRankCounts() {
			for _, alg := range perfmodel.Algorithms() {
				cells = append(cells, cell{alg, n, ranks})
			}
		}
	}
	prm := paperGridParams()
	return Stage{
		Name:  name,
		Cells: len(cells),
		run: func(rc *Context) error {
			_, err := grid.Map(rc.runner, len(cells), func(i int) (struct{}, error) {
				c := cells[i]
				e := core.Experiment{Algorithm: c.alg, N: c.n, Ranks: c.ranks, Placement: cluster.FullLoad}
				return struct{}{}, evalCell(rc, core.AnalyticCell{E: e, Params: prm})
			})
			return err
		},
	}
}

// repetitionsStage declares every repetition of the repeatability study
// as its own cell (the per-repetition noise seed is part of the analytic
// identity), mirroring core.RunRepeatedAnalytic's enumeration exactly so
// the study's table builder hits every cell.
func repetitionsStage() Stage {
	cells := repetitionCells()
	base := paperGridParams()
	type rep struct {
		key core.SweepKey
		r   int
	}
	var reps []rep
	for _, cell := range cells {
		for r := 0; r < RepetitionReps; r++ {
			reps = append(reps, rep{cell, r})
		}
	}
	return Stage{
		Name:  "repetitions",
		Cells: len(reps),
		run: func(rc *Context) error {
			_, err := grid.Map(rc.runner, len(reps), func(i int) (struct{}, error) {
				p := base
				p.NodeVariability = RepetitionVariability
				p.NoiseSeed = int64(reps[i].r + 1)
				return struct{}{}, evalCell(rc, core.AnalyticCell{E: reps[i].key.Experiment(), Params: p})
			})
			return err
		},
	}
}

// monitoredStage declares the exact-engine reference runs. They execute
// serially: the monitored engine spins up a full simulated world per
// run, and the process-global kernel pool is not meant to be shared by
// concurrent worlds.
func monitoredStage() Stage {
	refs := monitoredReferences()
	return Stage{
		Name:  "monitored-reference",
		Cells: len(refs),
		run: func(rc *Context) error {
			for _, e := range refs {
				if err := evalCell(rc, core.MonitoredCell(e)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// resilienceStage declares the MTBF sweep of both solvers under the
// seed-driven crash schedule — the campaign's most expensive tier (each
// point executes several solver worlds).
func resilienceStage(seed int64) Stage {
	return Stage{
		Name: "resilience",
		// probe + 5 MTBF points × 2 solvers.
		Cells: 11,
		run: func(rc *Context) error {
			return rc.ResilienceSweep(0, seed)
		},
	}
}

// sparseParams are the sparse grid's model parameters: strictly the
// defaults. The sparse model has no overlap, block-size or power-cap
// semantics, and every consumer — this stage, `lsbench -figure sparse`,
// advisord's matrix=sparse path — models at defaults so the cells share
// one store identity.
func sparseParams() perfmodel.Params { return perfmodel.Params{} }

// sparseStage declares the 72-cell sparse CPU-vs-accelerator grid
// (2 algorithms × 2 devices × 18 matrix recipes at 144 ranks full load).
func sparseStage() Stage {
	keys := core.SparseSweepKeys()
	prm := sparseParams()
	return Stage{
		Name:  "sparse-grid",
		Cells: len(keys),
		run: func(rc *Context) error {
			_, err := grid.Map(rc.runner, len(keys), func(i int) (struct{}, error) {
				return struct{}{}, evalCell(rc, core.SparseAnalyticCell{E: keys[i].Experiment(), Params: prm})
			})
			return err
		},
	}
}

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
			gridStage("paper-grid", paperGridParams()),
			gridStage("overlap-ablation", perfmodel.Params{}),
			gridStage("power-cap-110", perfmodel.Params{Overlap: true, PowerCapW: PowerCaps()[0]}),
			gridStage("power-cap-130", perfmodel.Params{Overlap: true, PowerCapW: PowerCaps()[1]}),
			repetitionsStage(),
			monitoredStage(),
			resilienceStage(ResilienceSeed),
			sparseStage(),
		},
	}
}

// ScalingDims are the off-grid matrix dimensions of the scaling campaign.
func ScalingDims() []int { return []int{4320, 12960, 21600, 30240} }

// Scaling returns the scaling campaign: strong-scaling cells between and
// beyond the paper's dimensions, full-load placements only.
func Scaling() Campaign {
	return Campaign{
		Name:        "scaling",
		Description: "strong-scaling sweep at off-grid matrix dimensions (full load)",
		Stages:      []Stage{scalingStage("scaling-grid", ScalingDims())},
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
