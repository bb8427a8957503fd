package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ime"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/scalapack"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// The probes time single layers from outside, through their exported
// functions, at fixed sizes that do not depend on the seed. Each reports
// a median over repetitions; README.md says which end-to-end metric each
// should move.

// timeMedian returns the median wall of reps calls of fn, in seconds.
func timeMedian(reps int, fn func() error) (float64, error) {
	walls := make([]float64, reps)
	for r := range walls {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls[r] = time.Since(t0).Seconds()
	}
	return median(walls), nil
}

// timeEach returns the mean wall of one of n back-to-back calls, in
// seconds: for calls too short to time singly.
func timeEach(n int, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(n), nil
}

// probeMPI times the engine's primitives: a 2-rank ping-pong of 8
// doubles, three collectives on the 144-rank full-load world, world
// construction at 1296 ranks, and the 576-rank IMe solve ROADMAP item 4
// quotes.
func probeMPI(out map[string]float64) error {
	const iters = 1000
	collective := func(ranks int, cfg *cluster.Config, body func(p *mpi.Proc) error) (float64, error) {
		w, err := mpi.NewWorld(ranks, mpi.Options{Config: cfg})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = w.Run(func(p *mpi.Proc) error {
			for i := 0; i < iters; i++ {
				if err := body(p); err != nil {
					return err
				}
			}
			return nil
		})
		return time.Since(t0).Seconds() * 1e6 / iters, err
	}

	payload := make([]float64, 8)
	var err error
	if out["mpi.pingpong_us"], err = collective(2, nil, func(p *mpi.Proc) error {
		if p.Rank() == 0 {
			if err := p.Send(p.World(), 1, 0, payload); err != nil {
				return err
			}
			_, err := p.Recv(p.World(), 1, 0)
			return err
		}
		if _, err := p.Recv(p.World(), 0, 0); err != nil {
			return err
		}
		return p.Send(p.World(), 0, 0, payload)
	}); err != nil {
		return fmt.Errorf("ping-pong: %w", err)
	}

	cfg144, err := cluster.NewConfig(engineRanks, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		return err
	}
	if out["mpi.bcast_us"], err = collective(engineRanks, &cfg144, func(p *mpi.Proc) error {
		var data []float64
		if p.Rank() == 0 {
			data = payload
		}
		_, err := p.Bcast(p.World(), 0, data)
		return err
	}); err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	if out["mpi.barrier_us"], err = collective(engineRanks, &cfg144, func(p *mpi.Proc) error {
		return p.Barrier(p.World())
	}); err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	if out["mpi.allreduce_us"], err = collective(engineRanks, &cfg144, func(p *mpi.Proc) error {
		_, err := p.AllreduceSum(p.World(), []float64{1, 2})
		return err
	}); err != nil {
		return fmt.Errorf("allreduce: %w", err)
	}

	cfg1296, err := cluster.NewConfig(1296, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		return err
	}
	setupS, err := timeMedian(51, func() error {
		_, err := mpi.NewWorld(1296, mpi.Options{Config: &cfg1296})
		return err
	})
	if err != nil {
		return err
	}
	out["mpi.world_setup_us"] = setupS * 1e6

	cfg576, err := cluster.NewConfig(576, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		return err
	}
	sys := mat.CachedSystem(576, 576)
	const solves = 5
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	solveS, err := timeMedian(solves, func() error {
		w, err := mpi.NewWorld(576, mpi.Options{Config: &cfg576})
		if err != nil {
			return err
		}
		return w.Run(func(p *mpi.Proc) error {
			_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("576-rank solve: %w", err)
	}
	runtime.ReadMemStats(&ms)
	out["mpi.solve_r576_ms"] = solveS * 1e3
	out["mpi.allocs_r576"] = float64(ms.Mallocs-before) / solves
	return nil
}

// probeKernel times the compute kernels the dense solvers sit on. Byte
// counts are computed from array sizes, not measured: the AXPY arrays
// (32 MiB each) are far below four times this machine's last-level
// cache, so kernel.axpy_gbps is a cache-resident rate.
func probeKernel(out map[string]float64) error {
	const n = denseN
	fill := func(x []float64, seed uint64) []float64 {
		for i := range x {
			seed = seed*2862933555777941757 + 3037000493
			x[i] = float64(int64(seed>>21)%2000-1000) / 1024
		}
		return x
	}
	a, b, c := fill(make([]float64, n*n), 1), fill(make([]float64, n*n), 2), make([]float64, n*n)
	gemmS, _ := timeMedian(7, func() error { kernel.Gemm(n, n, n, 1, a, n, b, n, c, n); return nil })
	scalarS, _ := timeMedian(3, func() error { kernel.GemmScalar(n, n, n, 1, a, n, b, n, c, n); return nil })
	out["kernel.gemm_gflops"] = 2 * n * n * n / gemmS / 1e9
	out["kernel.scalar_ratio"] = scalarS / gemmS

	const kw = scalapack.DefaultBlockSize
	trailS, _ := timeMedian(31, func() error { kernel.Gemm(n, n, kw, -1, a[:n*kw], kw, b[:kw*n], n, c, n); return nil })
	out["kernel.trailing_gflops"] = 2 * kw * n * n / trailS / 1e9

	const m = 1 << 22
	x, y := fill(make([]float64, m), 3), fill(make([]float64, m), 4)
	axpyS, _ := timeMedian(15, func() error { kernel.Axpy(1e-9, x, y); return nil })
	out["kernel.axpy_gbps"] = 24 * m / axpyS / 1e9
	return nil
}

// spmvProbe generates the full matrix of spec and times one
// single-threaded MulVecInto over it.
func spmvProbe(spec sparse.Spec) (genMS, spmvMS, nnz float64, err error) {
	var a *sparse.CSR
	genS, err := timeMedian(5, func() error {
		var err error
		a, err = spec.Matrix()
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	x, dst := spec.RHS(), make([]float64, spec.N)
	spmvS, _ := timeMedian(51, func() error { a.MulVecInto(dst, x); return nil })
	return genS * 1e3, spmvS * 1e3, float64(a.NNZ()), nil
}

// probeModel times one cell of each pricing path at the paper's
// n=17280 / 576-rank full-load point.
func probeModel(out map[string]float64) error {
	const n, ranks = 17280, 576
	cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		return err
	}
	prm := perfmodel.Params{Overlap: true}
	runS, err := timeMedian(21, func() error {
		for _, alg := range perfmodel.Algorithms() {
			if _, err := perfmodel.Run(alg, n, cfg, prm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["perfmodel.run_us"] = runS * 1e6 / float64(len(perfmodel.Algorithms()))

	recS, err := timeMedian(11, func() error {
		_, err := core.Recommend(n, ranks, cluster.FullLoad, core.MinEnergy, prm)
		return err
	})
	if err != nil {
		return err
	}
	out["core.recommend_us"] = recS * 1e6

	sur, err := surrogate.Default()
	if err != nil {
		return err
	}
	predS, err := timeEach(20000, func(i int) error {
		if _, ok := sur.Predict(perfmodel.Algorithms()[i%2], n+i%1000, cfg, prm); !ok {
			return fmt.Errorf("the surrogate refused n=%d at %d ranks", n+i%1000, ranks)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["surrogate.predict_ns"] = predS * 1e9

	accel, err := cluster.NewConfig(core.SparseSweepRanks, cluster.FullLoad, cluster.MarconiA3Accel())
	if err != nil {
		return err
	}
	spec := sparse.Spec{Kind: sparse.Banded, N: 1 << 20, Band: 256, Cond: 1e4, Seed: core.SparseSweepSeed}
	modelS, err := timeEach(20000, func(i int) error {
		_, err := sparse.Model(sparse.Algorithms()[i%2], spec, accel, cluster.Devices()[i/2%2], perfmodel.Params{})
		return err
	})
	if err != nil {
		return err
	}
	out["sparse.model_us"] = modelS * 1e6
	return nil
}

// probeStore times the pieces of a warm and a cold campaign cell on a
// store of the 72 paper-grid cells × 6 parameter sets (432 records, the
// size class of campaign-paper's 440), and the grid runner's per-task
// cost.
func probeStore(outDir string, out map[string]float64) error {
	root, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	type cell struct {
		e   core.Experiment
		prm perfmodel.Params
	}
	var cells []cell
	for _, capW := range []float64{0, 105, 115, 125, 135, 145} {
		for _, k := range core.SweepKeys() {
			cells = append(cells, cell{
				e:   core.Experiment{Algorithm: k.Algorithm, N: k.N, Ranks: k.Ranks, Placement: k.Placement},
				prm: perfmodel.Params{Overlap: true, PowerCapW: capW},
			})
		}
	}

	keys := make([]string, len(cells))
	identS, err := timeEach(len(cells), func(i int) error {
		var err error
		keys[i], _, err = store.KeyFor(core.AnalyticCellIdentity(cells[i].e, cells[i].prm))
		return err
	})
	if err != nil {
		return err
	}
	out["core.identity_us"] = identS * 1e6

	// Append alone: the records are computed and assembled beforehand.
	st, err := store.Open(filepath.Join(root, "append"))
	if err != nil {
		return err
	}
	recs := make([]store.Record, len(cells))
	for i, c := range cells {
		m, err := core.RunAnalytic(c.e, c.prm)
		if err == nil {
			recs[i], err = store.NewRecord("probe", core.AnalyticCellIdentity(c.e, c.prm), m)
		}
		if err != nil {
			st.Close()
			return err
		}
	}
	appendS, err := timeEach(len(recs), func(i int) error {
		_, err := st.Append(recs[i])
		return err
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out["store.append_us"] = appendS * 1e6

	// A second store holds the same cells as the engines store them, so
	// that LookupAnalyticCell can decode what it finds.
	cellDir := filepath.Join(root, "cells")
	if st, err = store.Open(cellDir); err != nil {
		return err
	}
	for _, c := range cells {
		if _, _, err := core.RunAnalyticStored(c.e, c.prm, st); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	openS, err := timeMedian(7, func() error {
		s, err := store.Open(cellDir)
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	out["store.open_ms"] = openS * 1e3

	if st, err = store.Open(cellDir); err != nil {
		return err
	}
	defer st.Close()
	const passes = 10
	getS, err := timeEach(passes*len(keys), func(i int) error {
		if _, ok, err := st.Get(keys[i%len(keys)]); err != nil || !ok {
			return fmt.Errorf("store.Get(%s): found=%v err=%v", keys[i%len(keys)], ok, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["store.get_us"] = getS * 1e6
	lookupS, err := timeEach(passes*len(cells), func(i int) error {
		c := cells[i%len(cells)]
		if _, ok, err := core.LookupAnalyticCell(st, c.e, c.prm); err != nil || !ok {
			return fmt.Errorf("LookupAnalyticCell(%+v): found=%v err=%v", c.e, ok, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["core.lookup_us"] = lookupS * 1e6

	const tasks = 10000
	mapS, err := timeMedian(5, func() error {
		_, err := grid.Map(grid.New(runtime.NumCPU()), tasks, func(int) (struct{}, error) { return struct{}{}, nil })
		return err
	})
	if err != nil {
		return err
	}
	out["grid.map_us_per_task"] = mapS * 1e6 / tasks
	return nil
}
