package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sparse"
)

const krylovRanks = 8

var sparseKrylov = &workload{
	name: "sparse-krylov",
	why: "CG then BiCGSTAB on a banded n=4096 system over 8 ranks: CSR SpMV plus a halo exchange and allreduce " +
		"dots per iteration: mpi as many tiny latency-bound collectives, unlike either dense workload",
	warmup:  6,
	chunk:   1,
	clients: 1,
	miniOps: 8,
	setup:   setupKrylov,
}

// krylovInst runs sparse.Solve CG then BiCGSTAB with cost charging on a
// bare 8-rank world. The recipe is the one ROADMAP item 4 names and
// BENCH_sparse.json was taken on, seed included: iteration counts move
// with the matrix seed (61–63 and 45–50 over ten seeds), and with them
// every metric of the op by 2–3%, which would read as noise to a protocol
// that varies the seed between runs. So, like campaign-paper's cells,
// this workload's input does not depend on the run's seed.
type krylovInst struct {
	spec  sparse.Spec
	sol   [2]sparse.Solution
	stats [2]krylovStats
	first [2]krylovStats
	have  bool
}

// krylovStats is the simulated side of one finished solve.
type krylovStats struct {
	worldStats
	iters  int
	totalJ float64
}

func setupKrylov(_ int64, _ string) (instance, error) {
	spec := sparse.Spec{Kind: sparse.Banded, N: 4096, Band: 64, Cond: 1e2, Seed: core.SparseSweepSeed}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &krylovInst{spec: spec}, nil
}

var krylovSpans = [2]string{"sparse.cg", "sparse.bicgstab"}

func (in *krylovInst) prepare(lo, hi int) error { return nil }

func (in *krylovInst) run(i int, tr *tracer, root int) error {
	for k, alg := range sparse.Algorithms() {
		sp := tr.begin(krylovSpans[k], i, root)
		w, err := mpi.NewWorld(krylovRanks, mpi.Options{})
		if err == nil {
			err = w.Run(func(p *mpi.Proc) error {
				sol, err := sparse.Solve(p, alg, in.spec, sparse.Options{ChargeCosts: true})
				if p.Rank() == 0 {
					in.sol[k] = sol
				}
				return err
			})
		}
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		in.stats[k] = krylovStats{worldStats: statsOf(w), iters: in.sol[k].Iters, totalJ: w.TotalEnergyJ()}
	}
	return nil
}

// check holds each solve to the solver's own tolerance and to the first
// op's simulated statistics; Solve has already failed an unconverged run.
func (in *krylovInst) check(i int) error {
	if !in.have {
		in.first, in.have = in.stats, true
	}
	for k, alg := range sparse.Algorithms() {
		if r := in.sol[k].Residual; !(r <= sparse.SolverTol) {
			return fmt.Errorf("%s: residual %g above the tolerance %g", alg, r, sparse.SolverTol)
		}
		got, ref := in.stats[k], in.first[k]
		if got.iters != ref.iters || got.worldStats != ref.worldStats {
			return fmt.Errorf("%s: simulated statistics %+v differ from the first op's %+v", alg, got, ref)
		}
		if math.Abs(got.totalJ-ref.totalJ) > jouleTolerance*ref.totalJ {
			return fmt.Errorf("%s: %g J is more than %g%% off the first op's %g J", alg, got.totalJ, 100*jouleTolerance, ref.totalJ)
		}
	}
	return nil
}

func (in *krylovInst) fingerprint() fingerprint {
	fp := newFingerprint()
	for k, s := range in.first {
		s.worldStats.into(fp, krylovSpans[k])
		fp.setInt(krylovSpans[k]+".iters", int64(s.iters))
		fp.Joules[krylovSpans[k]+".total_j"] = s.totalJ
	}
	return fp
}

func (in *krylovInst) close() error { return nil }

// layers splits the solve spans per iteration and sets that against one
// single-threaded full-matrix SpMV — the runtime share ROADMAP item 4
// wants small.
func (in *krylovInst) layers(tr *tracer, out map[string]float64) error {
	cgMS := median(tr.durationsMS(krylovSpans[0]))
	biMS := median(tr.durationsMS(krylovSpans[1]))
	iters := float64(in.first[0].iters + in.first[1].iters)
	out["sparse.iters_cg"] = float64(in.first[0].iters)
	out["sparse.iters_bicgstab"] = float64(in.first[1].iters)
	out["sparse.iter_ms"] = (cgMS + biMS) / iters

	genMS, spmvMS, nnz, err := spmvProbe(in.spec)
	if err != nil {
		return err
	}
	out["sparse.gen_ms"] = genMS
	out["sparse.spmv_ms"] = spmvMS
	out["sparse.spmv_gbps"] = 24 * nnz / (spmvMS / 1e3) / 1e9 // computed: 8 B value + 8 B index + 8 B gathered x
	out["sparse.iter_over_spmv"] = out["sparse.iter_ms"] / spmvMS
	return nil
}
