// Package grid runs independent experiment cells concurrently under one
// global worker budget.
//
// The paper's evaluation is a grid: every (solver, matrix dimension,
// ranks, placement) combination is one self-contained cell — an analytic
// model evaluation or a simulated-MPI world — that shares nothing with its
// neighbours. Cells therefore parallelise trivially, but naively spawning
// one goroutine per cell multiplies the engine's own per-world goroutine
// fan-out (a 1296-rank world is 1296 goroutines by itself). The Runner
// bounds the damage: at most `workers` cells execute at once, results come
// back in submission order, and the first error cancels the remainder,
// so output is byte-identical to a serial loop regardless of the budget.
package grid

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner is a shared worker budget. The zero value is not usable; call
// New. A single Runner may be shared by many concurrent Map/Do calls —
// the budget then caps their combined parallelism.
type Runner struct {
	sem chan struct{}
}

// New returns a Runner executing at most workers cells concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{sem: make(chan struct{}, workers)}
}

// Workers returns the runner's concurrency budget.
func (r *Runner) Workers() int { return cap(r.sem) }

// Map evaluates fn(0..n-1) under the runner's budget and returns the
// results in index order. It is a worker loop: the calling goroutine and
// up to min(workers, n)-1 more pull the next index from a shared counter
// until none is left, so a Map starts at most workers-1 goroutines however
// many cells it has, and with one worker it is a plain loop on the caller's
// stack. A goroutine per cell would bound concurrency just as well, but
// each would start on a fresh 8 KB stack and grow it again through
// whatever fn calls — a tenth of a warm campaign's CPU when measured
// (DESIGN.md §11); a worker grows its stack once. Each task takes a runner
// slot while it runs, not each worker while it lives, so concurrent Maps
// sharing one Runner interleave under the combined cap. After the first
// error (first observed, not lowest index) no further index is pulled;
// tasks already running finish and their results are discarded.
func Map[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var (
		next     atomic.Int64 // the next index to hand out
		failed   atomic.Bool
		firstErr error // written once, by the worker that sets failed
		wg       sync.WaitGroup
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			r.sem <- struct{}{}
			v, err := fn(i)
			<-r.sem
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					firstErr = err
				}
				return
			}
			out[i] = v
		}
	}
	for w := min(r.Workers(), n) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Do runs the tasks concurrently under the runner's budget and waits for
// all of them; the first error is returned.
func Do(r *Runner, tasks ...func() error) error {
	_, err := Map(r, len(tasks), func(i int) (struct{}, error) {
		return struct{}{}, tasks[i]()
	})
	return err
}
