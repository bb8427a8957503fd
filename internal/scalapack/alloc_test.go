package scalapack

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mat"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime makes sync.Pool drop entries: pooled paths then allocate by
// design and allocation budgets do not apply.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// solveAllocs runs one whole charged Pdgesv of order n with 8-wide panels
// — world construction, the two communicator splits and per-rank state
// included — and returns the heap allocations it made and the simulated
// messages it sent.
func solveAllocs(t *testing.T, n, ranks int) (allocs uint64, msgs int64) {
	t.Helper()
	sys := mat.NewRandomSystem(n, 3)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	_, w := runPdgesv(t, sys, ranks, ParallelOptions{BlockSize: 8, ChargeCosts: true})
	runtime.ReadMemStats(&ms)
	msgs, _ = w.Traffic()
	return ms.Mallocs - before, msgs
}

// TestPdgesvAllocsPerMessage bounds what a Pdgesv solve on a 4×4 grid asks
// of the host's allocator per simulated message. The engine's own message
// path allocates nothing in steady state (internal/mpi/alloc_test.go);
// this catches a solver change that re-introduces a per-panel or
// per-column allocation: a dropped broadcast result, a rebuilt index
// list, a matrix header around a payload.
func TestPdgesvAllocsPerMessage(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	// A GC cycle empties the pools; keep one from landing mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Orders 64 and 96 leave every rank under 32 rows, so the trailing
	// update never fans out across the kernel pool: a fan-out's closures
	// and wait group are real allocations, but they are the pool's, paid
	// only on multi-core hosts, and not what this test is about.
	const ranks = 16
	for _, n := range []int{64, 96} { // warm the pools at both payload sizes
		solveAllocs(t, n, ranks)
	}
	// Scheduling noise (a buffer parked on another P, a goroutine's first
	// stack) only ever adds allocations, so the least of three runs is the
	// measurement.
	a64, m64 := solveAllocs(t, 64, ranks)
	a96, m96 := solveAllocs(t, 96, ranks)
	for rep := 1; rep < 3; rep++ {
		a, _ := solveAllocs(t, 64, ranks)
		a64 = min(a64, a)
		a, _ = solveAllocs(t, 96, ranks)
		a96 = min(a96, a)
	}

	// The whole solve: measured 0.48–0.50 per message (528–541 allocations
	// over 1 092 messages; 3 855, 3.53 per message, before the message path
	// stopped allocating), all of it set-up — world, streams, the row and
	// column communicators.
	if per := float64(a64) / float64(m64); per > 0.75 {
		t.Errorf("n=64 on %d ranks: %d allocations over %d messages = %.2f per message, budget 0.75", ranks, a64, m64, per)
	}
	// Steady state: what 4 more panels add. Set-up is the same at both
	// orders, so this is the panel loop alone: measured 0 to 10. One
	// allocation per panel per rank would add 64 (0.12 per added message).
	extra, over := float64(a96)-float64(a64), float64(m96-m64)
	if per := extra / over; per > 0.06 {
		t.Errorf("n=64→96 on %d ranks: %.0f more allocations over %.0f more messages = %.2f per message, budget 0.06", ranks, extra, over, per)
	}
	t.Logf("n=64: %d allocs / %d msgs; n=96: %d allocs / %d msgs", a64, m64, a96, m96)
}
