package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/sparse"
	"repro/internal/store"
)

// The sparse advisor and its evaluation grid. Where the dense advisor
// ranks IMe vs ScaLAPACK for a job shape, the sparse advisor ranks the
// device axis — the same memory-bound solve on CPU cores vs on the
// node's accelerators — which is the genuinely non-obvious placement
// decision for iterative workloads: accelerators win big solves on
// bandwidth, CPU-only placements win small ones on idle power and
// transfer latency.

// SparseRecommendation is the advisor's verdict for one sparse shape.
type SparseRecommendation struct {
	Objective Objective
	// Best names the winning device.
	Best  cluster.Device
	CPU   SparseMeasurement
	Accel SparseMeasurement
	// Margin is how much better the winner is on the objective metric.
	Margin float64
}

// RankSparse picks the winner between the CPU and accelerated
// measurements of one sparse shape under the objective. Every serving
// path ranks through this single function, which applies Rank's rule to
// the device axis; a tie goes to the accelerator.
func RankSparse(cpuM, accelM SparseMeasurement, objective Objective) (SparseRecommendation, error) {
	best, margin, err := verdict(objective,
		score{cpuM.TotalJ, cpuM.DurationS, cpuM.GFlopsPerWatt()}, cluster.DeviceCPU,
		score{accelM.TotalJ, accelM.DurationS, accelM.GFlopsPerWatt()}, cluster.DeviceAccel)
	return SparseRecommendation{Objective: objective, Best: best, CPU: cpuM, Accel: accelM, Margin: margin}, err
}

// RecommendSparseStored models the sparse shape on both devices, each a
// store cell, and picks a winner under the objective; computed counts
// the evaluations that ran (always 2 on a nil store).
func RecommendSparseStored(alg sparse.Algorithm, mspec sparse.Spec, ranks int, placement cluster.Placement, objective Objective, st *store.Store) (SparseRecommendation, int, error) {
	cpu := SparseExperiment{
		Algorithm: alg, Kind: mspec.Kind, N: mspec.N, Ranks: ranks, Placement: placement, Device: cluster.DeviceCPU,
		Band: mspec.Band, Density: mspec.Density, Cond: mspec.Cond, Seed: mspec.Seed,
	}
	acc := cpu
	acc.Device = cluster.DeviceAccel
	cpuM, accM, computed, err := runBoth(st, SparseAnalyticCell{E: cpu}, SparseAnalyticCell{E: acc})
	if err != nil {
		return SparseRecommendation{Objective: objective}, computed, err
	}
	rec, err := RankSparse(cpuM, accM, objective)
	return rec, computed, err
}

// SparseSweepRanks is the rank count of the sparse evaluation grid: the
// paper's smallest full-load deployment (3 nodes).
const SparseSweepRanks = 144

// SparseSweepSeed generates every grid system deterministically.
const SparseSweepSeed = 7

// SparseSweepKey identifies one cell of the sparse evaluation grid.
type SparseSweepKey struct {
	Algorithm sparse.Algorithm
	Device    cluster.Device
	Spec      sparse.Spec
}

// Experiment returns the sparse experiment of the cell: the grid's rank
// count at full load.
func (k SparseSweepKey) Experiment() SparseExperiment {
	return SparseExperiment{
		Algorithm: k.Algorithm, Kind: k.Spec.Kind, N: k.Spec.N,
		Ranks: SparseSweepRanks, Placement: cluster.FullLoad, Device: k.Device,
		Band: k.Spec.Band, Density: k.Spec.Density, Cond: k.Spec.Cond, Seed: k.Spec.Seed,
	}
}

// String renders the cell's coordinates for error messages.
func (k SparseSweepKey) String() string {
	return fmt.Sprintf("%v/%s/%s", k.Algorithm, k.Device, k.Spec.Label())
}

// SparseSweepSpecs enumerates the matrix recipes of the grid: banded
// stencils at three orders and random patterns at two densities, each at
// a benign and an ill condition target.
func SparseSweepSpecs() []sparse.Spec {
	var specs []sparse.Spec
	for _, cond := range []float64{1e2, 1e4} {
		for _, n := range []int{16384, 131072, 1048576} {
			specs = append(specs, sparse.Spec{
				Kind: sparse.Banded, N: n, Band: 256, Cond: cond, Seed: SparseSweepSeed,
			})
		}
		for _, density := range []float64{1e-4, 1e-3} {
			for _, n := range []int{16384, 131072, 1048576} {
				specs = append(specs, sparse.Spec{
					Kind: sparse.Random, N: n, Density: density, Cond: cond, Seed: SparseSweepSeed,
				})
			}
		}
	}
	return specs
}

// SparseSweepKeys enumerates the grid cells in canonical order:
// 2 algorithms × 2 devices × 18 matrix recipes = 72 cells.
func SparseSweepKeys() []SparseSweepKey {
	var keys []SparseSweepKey
	for _, spec := range SparseSweepSpecs() {
		for _, alg := range sparse.Algorithms() {
			for _, dev := range cluster.Devices() {
				keys = append(keys, SparseSweepKey{Algorithm: alg, Device: dev, Spec: spec})
			}
		}
	}
	return keys
}

// SparseSweep holds the full sparse evaluation grid.
type SparseSweep struct {
	Measurements map[SparseSweepKey]SparseMeasurement
}

// SparseSweepCells is the sparse evaluation grid as a cell set —
// SweepCells for the sparse cells. Collect builds the SparseSweep.
func SparseSweepCells() CellSet[*SparseSweep] {
	return gridCells(SparseSweepKeys(),
		func(_ *Evaluator, k SparseSweepKey) SparseAnalyticCell {
			return SparseAnalyticCell{E: k.Experiment()}
		},
		func(ms map[SparseSweepKey]SparseMeasurement) *SparseSweep {
			return &SparseSweep{Measurements: ms}
		})
}

// Get returns one cell, failing loudly on a missing key.
func (s *SparseSweep) Get(alg sparse.Algorithm, dev cluster.Device, spec sparse.Spec) (SparseMeasurement, error) {
	m, ok := s.Measurements[SparseSweepKey{Algorithm: alg, Device: dev, Spec: spec}]
	if !ok {
		return SparseMeasurement{}, fmt.Errorf("core: sparse sweep has no cell %v/%s/%s", alg, dev, spec.Label())
	}
	return m, nil
}

// SparseFigure renders the sparse CPU-vs-accelerator comparison: one row
// per (algorithm, matrix recipe) with both devices' energy and duration
// and the min-energy verdict — the sparse counterpart of Figures 4–7.
func (s *SparseSweep) SparseFigure() (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Sparse workloads: CPU vs accelerator, %d ranks full load", SparseSweepRanks),
		Headers: []string{"alg", "matrix", "n", "cond", "iters",
			"cpu J", "accel J", "cpu s", "accel s", "best (min-energy)", "margin %"},
	}
	for _, spec := range SparseSweepSpecs() {
		for _, alg := range sparse.Algorithms() {
			cpu, err := s.Get(alg, cluster.DeviceCPU, spec)
			if err != nil {
				return nil, err
			}
			acc, err := s.Get(alg, cluster.DeviceAccel, spec)
			if err != nil {
				return nil, err
			}
			rec, err := RankSparse(cpu, acc, MinEnergy)
			if err != nil {
				return nil, err
			}
			t.Add(alg.String(), spec.Kind.String(), spec.N, spec.Cond, cpu.Iters,
				cpu.TotalJ, acc.TotalJ, cpu.DurationS, acc.DurationS,
				rec.Best.String(), 100*rec.Margin)
		}
	}
	return t, nil
}
