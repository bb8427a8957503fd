// Package kernel provides the cache-blocked, multicore float64 compute
// kernels the solvers' hot loops run on: a tiled rank-k update / GEMM,
// fused row-AXPY, the elementwise multiply-add of the sparse solver's
// banded SpMV, scaled copy, dot products and a matrix-vector product,
// plus a process-wide worker pool sized by GOMAXPROCS that fans heavy
// updates out across real cores.
//
// The kernels change *wall-clock* time only. Simulated virtual time and
// energy are charged analytically (ime.LevelFlops, scalapack flop counts)
// by the callers, so every figure and duration the reproduction reports is
// unaffected by how fast the real hardware executes the arithmetic — see
// DESIGN.md, "Real parallelism vs. virtual time".
//
// On amd64, Axpy, MulAdd and GEMM's 4×4 micro-kernel are SSE2 assembly
// (kernel_amd64.s); every other GOARCH runs the Go loops in
// kernel_generic.go. SSE2 rather than AVX2 because every amd64 CPU has
// it: one amd64 path, no CPU dispatch. Never an FMA: each lane does one
// multiply and then one add, the scalar loop's two roundings, so the
// assembly computes the Go loops' bits on every amd64 CPU (ROADMAP item
// 1). The same bit-identity tests hold both; the portable loops meet them
// wherever the compiler does not fuse a multiply-add on its own (386
// does not; arm64 does, ROADMAP item 1(b)). MulAdd's portable loop rounds
// each product explicitly, float64(a·b), which the Go spec says forbids
// fusion, so it meets them on arm64 too.
package kernel

import (
	"runtime"
	"sync"
)

// pool is the process-wide worker pool. All simulated MPI ranks share it:
// each rank is a goroutine, and whichever ranks are executing a heavy
// kernel at the same moment compete for the same physical cores, exactly
// as co-scheduled processes on a node would.
var (
	poolOnce    sync.Once
	poolWorkers int
	poolJobs    chan func()
)

func startPool() {
	poolWorkers = runtime.GOMAXPROCS(0)
	if poolWorkers <= 1 {
		return
	}
	// A deep buffer lets many ranks enqueue chunks without blocking each
	// other; workers never block on other jobs, so the pool cannot
	// deadlock.
	poolJobs = make(chan func(), 4*poolWorkers)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for job := range poolJobs {
				job()
			}
		}()
	}
}

// Workers returns the size of the process-wide pool (GOMAXPROCS at first
// use).
func Workers() int {
	poolOnce.Do(startPool)
	if poolWorkers < 1 {
		return 1
	}
	return poolWorkers
}

// spansFor returns how many contiguous spans ParallelFor splits [0,n)
// into: at most Workers(), each at least grain indices long, and one when
// the process has no pool.
func spansFor(n, grain int) int {
	poolOnce.Do(startPool)
	if poolJobs == nil {
		return 1
	}
	if grain < 1 {
		grain = 1
	}
	spans := n / grain
	if spans > poolWorkers {
		spans = poolWorkers
	}
	return spans
}

// RunsInline reports whether ParallelFor(n, grain, fn) would run fn(0, n)
// on the calling goroutine — the range is shorter than two grains, or the
// process has no pool — and, when it would, counts the call in the pool's
// telemetry exactly as ParallelFor does. A func literal handed to
// ParallelFor escapes to the heap whether or not it ever leaves the
// caller, so a hot call site with mostly small ranges asks first and calls
// its loop body directly:
//
//	if kernel.RunsInline(n, grain) {
//		body(0, n)
//	} else {
//		kernel.ParallelFor(n, grain, func(lo, hi int) { body(lo, hi) })
//	}
func RunsInline(n, grain int) bool {
	if n <= 0 {
		return true
	}
	if spansFor(n, grain) > 1 {
		return false
	}
	if m := metrics.Load(); m != nil {
		m.calls.Inc()
		m.inline.Inc()
		m.tiles.Inc()
		m.spanLen.Observe(float64(n))
	}
	return true
}

// ParallelFor executes fn over the index range [0,n), split into at most
// Workers() contiguous spans of at least grain indices each. The calling
// goroutine runs the last span itself and waits for the rest, so the call
// returns only when the whole range is done. Ranges smaller than two
// grains run inline with no synchronisation at all (see RunsInline).
//
// fn must be safe to run concurrently on disjoint spans; spans never
// overlap and cover [0,n) exactly once.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if RunsInline(n, grain) {
		fn(0, n)
		return
	}
	spans := spansFor(n, grain)
	m := metrics.Load()
	if m != nil {
		m.calls.Inc()
		m.tiles.Add(float64(spans))
		m.queue.Set(float64(len(poolJobs) + spans - 1))
	}
	var wg sync.WaitGroup
	span := n / spans
	rem := n % spans
	lo := 0
	for s := 0; s < spans-1; s++ {
		sz := span
		if s < rem {
			sz++
		}
		l, h := lo, lo+sz
		lo = h
		wg.Add(1)
		if m != nil {
			m.spanLen.Observe(float64(sz))
			poolJobs <- func() {
				defer wg.Done()
				m.active.Add(1)
				fn(l, h)
				m.active.Add(-1)
			}
		} else {
			poolJobs <- func() {
				defer wg.Done()
				fn(l, h)
			}
		}
	}
	if m != nil {
		m.spanLen.Observe(float64(n - lo))
	}
	fn(lo, n)
	wg.Wait()
}
