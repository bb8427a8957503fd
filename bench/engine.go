package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/scalapack"
)

// residualBound is the relative residual every dense solve must reach.
const residualBound = 1e-8

const (
	engineN     = 288
	engineRanks = 144
	engineNB    = 8
)

var engine144 = &workload{
	name: "engine-144",
	why: "144 ranks, two rows each: ~280k allocations and negligible flops per op, so mpi matching, " +
		"collectives and the monitor framework do the work and kernel almost none",
	warmup:  4,
	chunk:   1,
	clients: 1,
	miniOps: 5,
	setup:   setupEngine,
}

// engineInst runs core.RunMonitored IMe then ScaLAPACK on one seeded
// system at the paper's smallest Table 1 deployment (3 full-load nodes).
// The two solvers use the same layer differently — IMe's master/slave
// pattern against panel broadcasts on row and column communicators — so
// an engine change that helps one and costs the other shows in the
// per-solver spans.
type engineInst struct {
	exps  [2]core.Experiment
	first [2]core.Measurement // the first op's results, the later ones' reference
	have  bool
	last  [2]core.Measurement
}

func setupEngine(seed int64, _ string) (instance, error) {
	e := core.Experiment{N: engineN, Ranks: engineRanks, Placement: cluster.FullLoad, Seed: seed, BlockSize: engineNB}
	in := &engineInst{}
	for k, alg := range []perfmodel.Algorithm{perfmodel.IMe, perfmodel.ScaLAPACK} {
		e.Algorithm = alg
		in.exps[k] = e
	}
	return in, nil
}

var engineSpans = [2]string{"ime.cell", "scalapack.cell"}

func (in *engineInst) prepare(lo, hi int) error { return nil }

func (in *engineInst) run(i int, tr *tracer, root int) error {
	for k, e := range in.exps {
		sp := tr.begin(engineSpans[k], i, root)
		m, err := core.RunMonitored(e)
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Algorithm, err)
		}
		in.last[k] = m
	}
	return nil
}

func (in *engineInst) check(i int) error {
	if !in.have {
		in.first, in.have = in.last, true
	}
	for k, m := range in.last {
		alg := in.exps[k].Algorithm
		if !(m.Residual <= residualBound) {
			return fmt.Errorf("%s: relative residual %g exceeds %g", alg, m.Residual, residualBound)
		}
		if ref := in.first[k]; m.DurationS != ref.DurationS {
			return fmt.Errorf("%s: virtual duration %v differs from the first op's %v", alg, m.DurationS, ref.DurationS)
		} else if math.Abs(m.TotalJ-ref.TotalJ) > jouleTolerance*ref.TotalJ {
			return fmt.Errorf("%s: %g J is more than %g%% off the first op's %g J", alg, m.TotalJ, 100*jouleTolerance, ref.TotalJ)
		}
	}
	return nil
}

func (in *engineInst) fingerprint() fingerprint {
	fp := newFingerprint()
	for k, m := range in.first {
		alg := in.exps[k].Algorithm.String()
		fp.setFloat(alg+".duration_s", m.DurationS)
		fp.Joules[alg+".total_j"] = m.TotalJ
	}
	return fp
}

func (in *engineInst) close() error { return nil }

// layers reports the two cell spans and runs both solvers on a bare
// world with the same cluster.Config: the monitored cell minus that is
// what the monitor/papi/rapl framework costs, and the bare world's exact
// traffic counts turn host time and allocations into per-message figures.
func (in *engineInst) layers(tr *tracer, out map[string]float64) error {
	var cellMS float64
	for _, name := range engineSpans {
		v := median(tr.durationsMS(name))
		out[name+"_ms"] = v
		cellMS += v
	}

	cfg, err := cluster.NewConfig(engineRanks, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		return err
	}
	sys := mat.CachedSystem(engineN, in.exps[0].Seed)
	const reps = 5
	var bareMS, simS, msgs, bytes, allocs float64
	for k := range in.exps {
		var host []float64
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		var w *mpi.World
		for r := 0; r < reps; r++ {
			if w, err = mpi.NewWorld(engineRanks, mpi.Options{Config: &cfg}); err != nil {
				return err
			}
			t0 := time.Now()
			err = w.Run(func(p *mpi.Proc) error {
				var err error
				if k == 0 {
					_, err = ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
				} else {
					_, err = scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{BlockSize: engineNB, ChargeCosts: true})
				}
				return err
			})
			host = append(host, time.Since(t0).Seconds()*1e3)
			if err != nil {
				return fmt.Errorf("bare %s world: %w", in.exps[k].Algorithm, err)
			}
		}
		runtime.ReadMemStats(&ms)
		allocs += float64(ms.Mallocs-before) / reps
		m, b := w.Traffic()
		msgs += float64(m)
		bytes += float64(b)
		simS += w.MaxClock()
		bareMS += median(host)
	}
	out["monitor.overhead_ms"] = cellMS - bareMS
	out["mpi.msgs_per_op"] = msgs
	out["mpi.bytes_per_op"] = bytes
	out["mpi.host_us_per_msg"] = bareMS * 1e3 / msgs
	out["mpi.allocs_per_msg"] = allocs / msgs
	out["engine.sim_s_per_host_s"] = simS / (bareMS / 1e3)
	return nil
}
