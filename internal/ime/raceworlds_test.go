package ime

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// TestConcurrentWorldsSolveParallel runs several simulated worlds at once:
// their ranks all share the mpi payload buffer pool, so under -race this
// pins its cross-world safety (and that recycled buffers never leak
// between concurrent solves).
func TestConcurrentWorldsSolveParallel(t *testing.T) {
	const worlds = 4
	var wg sync.WaitGroup
	errs := make([]error, worlds)
	xs := make([][]float64, worlds)
	for wi := 0; wi < worlds; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			sys := mat.NewRandomSystem(48, int64(100+wi))
			w, err := mpi.NewWorld(3, mpi.Options{})
			if err != nil {
				errs[wi] = err
				return
			}
			var mu sync.Mutex
			errs[wi] = w.Run(func(p *mpi.Proc) error {
				opts := ParallelOptions{Overlap: wi%2 == 1}
				x, err := SolveParallel(p, p.World(), sys, opts)
				if err != nil {
					return err
				}
				mu.Lock()
				xs[wi] = x
				mu.Unlock()
				return nil
			})
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", wi, err)
		}
	}
	for wi, x := range xs {
		sys := mat.NewRandomSystem(48, int64(100+wi))
		want, err := SolveSequential(sys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if x[i] != want[i] {
				t.Fatalf("world %d: x[%d] = %v, want %v (bit-exact)", wi, i, x[i], want[i])
			}
		}
	}
}
