package sparse

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ime"
	"repro/internal/mpi"
)

// Allocation budget of a solve. Set-up may allocate per peer; an
// iteration may not allocate at all in this package — what is left per
// iteration belongs to the message path, whose own budget
// (mpi.TestPingPongAllocsPerMessage) is 0.05 allocations per message.

const maxAllocsPerMessage = 0.05

// cappedSolve runs alg for exactly maxIter iterations (the tolerance is
// out of reach, so the solve ends on its iteration budget) and returns
// the heap allocations and messages of the whole world.
func cappedSolve(t *testing.T, alg Algorithm, spec Spec, ranks, maxIter int) (allocs uint64, msgs int64) {
	t.Helper()
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	err = w.Run(func(p *mpi.Proc) error {
		_, err := Solve(p, alg, spec, Options{ChargeCosts: true, Tol: 1e-300, MaxIter: maxIter})
		if err == nil {
			t.Errorf("%s reached a relative residual of 1e-300 in %d iterations", alg, maxIter)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	msgs, _ = w.Traffic()
	return ms.Mallocs - before, msgs
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
		}
	}
}

// worldJitter is how far the allocation counts of two identical solves
// drift apart: goroutine starts and the pools' per-P bookkeeping.
const worldJitter = 16

// TestIterationAllocatesNothing takes the difference between a 20- and a
// 120-iteration solve, which cancels set-up, the solver's vectors, the
// final allgather and the error value. One allocation per iteration on
// one rank would show as 100: on one rank, where no message is sent, the
// difference stays inside the jitter of two worlds, and on eight ranks
// inside that plus the message path's budget for the extra traffic.
func TestIterationAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the buffer pools
	spec := Spec{Kind: Banded, N: 1024, Band: 16, Cond: 1e4, Seed: 5}
	for _, alg := range Algorithms() {
		for _, ranks := range []int{1, 8} {
			cappedSolve(t, alg, spec, ranks, 120) // fill the pools
			a0, m0 := cappedSolve(t, alg, spec, ranks, 20)
			a1, m1 := cappedSolve(t, alg, spec, ranks, 120)
			extra, budget := int64(a1)-int64(a0), worldJitter+maxAllocsPerMessage*float64(m1-m0)
			t.Logf("%s ranks=%d: %d allocations and %d messages in 100 iterations", alg, ranks, extra, m1-m0)
			if float64(extra) > budget {
				t.Errorf("%s ranks=%d: 100 iterations allocate %d times over %d messages, budget %.0f",
					alg, ranks, extra, m1-m0, budget)
			}
		}
	}
}

// TestSetupAllocationsIndependentOfNNZ holds set-up to O(peers). The row
// block is a fixed handful of exact-size slices whatever it holds, and a
// one-iteration solve of a block with sixteen times the entries (and the
// same two neighbours per rank) allocates no more often, up to the buffer
// pool's size classes the larger messages open.
func TestSetupAllocationsIndependentOfNNZ(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ranks = 8
	small := Spec{Kind: Banded, N: 1024, Band: 16, Cond: 1e4, Seed: 5}
	large := Spec{Kind: Banded, N: 4096, Band: 64, Cond: 1e4, Seed: 5}
	for _, spec := range []Spec{small, large, {Kind: Random, N: 1500, Density: 0.02, Cond: 60, Seed: 7}} {
		lo, hi := ime.BlockRange(spec.N, ranks, 3)
		got := testing.AllocsPerRun(5, func() {
			if _, err := spec.rowRuns(lo, hi); err != nil {
				t.Fatal(err)
			}
		})
		if got > 7 {
			t.Errorf("%s: generating rows [%d,%d) allocates %v times, want at most 7", spec.Label(), lo, hi, got)
		}
		if spec.Kind != Banded {
			continue
		}
		got = testing.AllocsPerRun(5, func() {
			if _, err := spec.bandBlock(lo, hi); err != nil {
				t.Fatal(err)
			}
		})
		if got > 5 {
			t.Errorf("%s: generating the band form of rows [%d,%d) allocates %v times, want at most 5", spec.Label(), lo, hi, got)
		}
	}
	cappedSolve(t, CG, large, ranks, 1)
	a0, _ := cappedSolve(t, CG, small, ranks, 1)
	a1, _ := cappedSolve(t, CG, large, ranks, 1)
	t.Logf("one-iteration solve: %d allocations at nnz=%.0f, %d at nnz=%.0f", a0, small.EstNNZ(), a1, large.EstNNZ())
	if a1 > a0+4*worldJitter {
		t.Errorf("set-up allocations grow with the matrix: %d at nnz=%.0f, %d at nnz=%.0f", a0, small.EstNNZ(), a1, large.EstNNZ())
	}
	if perRank := float64(a1) / ranks; perRank > 60 {
		t.Errorf("a one-iteration solve allocates %.0f times per rank, budget 60", perRank)
	}
}
