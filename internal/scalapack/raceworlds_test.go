package scalapack

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// TestConcurrentWorldsPdgesv solves in several worlds at once. The
// blocked trailing-update GEMM fans out on the process-wide worker pool
// and the transport buffers cycle through the shared mpi pool, so under
// -race this pins both against cross-world interference.
func TestConcurrentWorldsPdgesv(t *testing.T) {
	const worlds = 4
	var wg sync.WaitGroup
	errs := make([]error, worlds)
	for wi := 0; wi < worlds; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			sys := mat.NewRandomSystem(40, int64(200+wi))
			w, err := mpi.NewWorld(4, mpi.Options{})
			if err != nil {
				errs[wi] = err
				return
			}
			errs[wi] = w.Run(func(p *mpi.Proc) error {
				x, err := Pdgesv(p, p.World(), sys, ParallelOptions{BlockSize: 8})
				if err != nil {
					return err
				}
				if rr := mat.RelativeResidual(sys.A, x, sys.B); rr > 1e-12 {
					return fmt.Errorf("relative residual %g", rr)
				}
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
}
