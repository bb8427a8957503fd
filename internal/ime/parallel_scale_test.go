package ime

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// TestParallelLargeWorldSolve drives a 96-rank world end to end — the CI
// race job runs it under -race to sweep the engine's concurrent machinery
// (sparse stream creation, dissemination barriers, striped traffic
// counters, node accounting) at a rank count past anything the unit tests
// reach. Both solver variants run so the out-of-tag-order stash path is
// exercised too.
func TestParallelLargeWorldSolve(t *testing.T) {
	const n, ranks = 96, 96
	sys := mat.CachedSystem(n, int64(n))
	for _, opts := range []ParallelOptions{
		{ChargeCosts: true},
		{ChargeCosts: true, Overlap: true},
	} {
		x, w := runParallel(t, sys, ranks, opts)
		for i := range x {
			if err := math.Abs(x[i] - sys.X[i]); err > 1e-8 {
				t.Fatalf("overlap=%v: x[%d] off by %g", opts.Overlap, i, err)
			}
		}
		if w.MaxClock() <= 0 {
			t.Fatalf("overlap=%v: no virtual time charged", opts.Overlap)
		}
		msgs, vol := w.Traffic()
		if !opts.Overlap {
			// The closed forms describe the synchronous protocol; the
			// overlapped variant trades messages for lookahead.
			if msgs != ExpectedMessages(n, ranks) || vol != ExpectedVolume(n, ranks) {
				t.Fatalf("traffic %d/%d, want %d/%d",
					msgs, vol, ExpectedMessages(n, ranks), ExpectedVolume(n, ranks))
			}
		} else if msgs == 0 || vol == 0 {
			t.Fatal("overlap run counted no traffic")
		}
	}
}

// BenchmarkWorldSolve measures a small fixed solve (one table row per
// rank) through the full runtime at the paper's strong-scaling rank
// counts: construction, rank goroutines, message matching, barrier merges
// and energy accounting. The 1296-rank case is skipped under -short so
// the CI smoke step stays fast.
func BenchmarkWorldSolve(b *testing.B) {
	for _, ranks := range []int{144, 576, 1296} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			if testing.Short() && ranks > 576 {
				b.Skip("skipping paper-scale solve under -short")
			}
			cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
			if err != nil {
				b.Fatal(err)
			}
			sys := mat.NewRandomSystem(ranks, int64(ranks))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := mpi.NewWorld(ranks, mpi.Options{Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(func(p *mpi.Proc) error {
					_, err := SolveParallel(p, p.World(), sys, ParallelOptions{ChargeCosts: true})
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
