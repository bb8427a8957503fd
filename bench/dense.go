package main

import (
	"fmt"

	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/scalapack"
)

const (
	denseN     = 640
	denseRanks = 4
)

var kernelDense = &workload{
	name: "kernel-dense",
	why: "4 ranks, 160 rows each, no cost charging: kernel.Gemm and AXPY do most of the work, mpi little, " +
		"monitor none; an engine optimisation must show no change here",
	warmup:  4,
	chunk:   1,
	clients: 1,
	miniOps: 5,
	setup:   setupDense,
}

// denseInst runs ime.SolveParallel then scalapack.Pdgesv on a bare
// 4-rank world, what `lssolve -ranks 4 -alg both` runs.
type denseInst struct {
	sys   *mat.System
	x     [2][]float64
	stats [2]worldStats
	first [2]worldStats
	have  bool
}

// worldStats is the simulated side of one finished world.
type worldStats struct {
	msgs, bytes int64
	clockS      float64
}

func statsOf(w *mpi.World) worldStats {
	m, b := w.Traffic()
	return worldStats{msgs: m, bytes: b, clockS: w.MaxClock()}
}

func (s worldStats) into(fp fingerprint, prefix string) {
	fp.setInt(prefix+".msgs", s.msgs)
	fp.setInt(prefix+".bytes", s.bytes)
	fp.setFloat(prefix+".clock_s", s.clockS)
}

func setupDense(seed int64, _ string) (instance, error) {
	return &denseInst{sys: mat.NewRandomSystem(denseN, seed)}, nil
}

var denseSpans = [2]string{"ime.solve", "scalapack.solve"}

func (in *denseInst) prepare(lo, hi int) error { return nil }

func (in *denseInst) run(i int, tr *tracer, root int) error {
	for k := range denseSpans {
		sp := tr.begin(denseSpans[k], i, root)
		w, err := mpi.NewWorld(denseRanks, mpi.Options{})
		if err == nil {
			err = w.Run(func(p *mpi.Proc) error {
				var x []float64
				var err error
				if k == 0 {
					x, err = ime.SolveParallel(p, p.World(), in.sys, ime.ParallelOptions{})
				} else {
					x, err = scalapack.Pdgesv(p, p.World(), in.sys, scalapack.ParallelOptions{})
				}
				if p.Rank() == 0 {
					in.x[k] = x
				}
				return err
			})
		}
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", denseSpans[k], err)
		}
		in.stats[k] = statsOf(w)
	}
	return nil
}

func (in *denseInst) check(i int) error {
	if !in.have {
		in.first, in.have = in.stats, true
	}
	for k, x := range in.x {
		if r := mat.RelativeResidual(in.sys.A, x, in.sys.B); !(r <= residualBound) {
			return fmt.Errorf("%s: relative residual %g exceeds %g", denseSpans[k], r, residualBound)
		}
		if in.stats[k] != in.first[k] {
			return fmt.Errorf("%s: simulated statistics %+v differ from the first op's %+v", denseSpans[k], in.stats[k], in.first[k])
		}
	}
	return nil
}

func (in *denseInst) fingerprint() fingerprint {
	fp := newFingerprint()
	for k, s := range in.first {
		s.into(fp, denseSpans[k])
	}
	return fp
}

func (in *denseInst) close() error { return nil }

// layers turns the two solve spans into solver flop rates: with no cost
// charging and 160 rows per rank the spans are kernel time, so these move
// with kernel.Gemm and stay flat under an engine change.
func (in *denseInst) layers(tr *tracer, out map[string]float64) error {
	imeMS := median(tr.durationsMS(denseSpans[0]))
	scaMS := median(tr.durationsMS(denseSpans[1]))
	out["ime.solve_ms"] = imeMS
	out["scalapack.solve_ms"] = scaMS
	out["ime.gflops"] = ime.TotalFlops(denseN) / (imeMS / 1e3) / 1e9
	out["scalapack.gflops"] = scalapack.TotalFlops(denseN) / (scaMS / 1e3) / 1e9
	return nil
}
