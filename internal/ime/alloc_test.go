package ime

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

// solveAllocs runs one whole charged solve of order n — world construction
// and per-rank state included — and returns the heap allocations it made
// and the simulated messages it sent.
func solveAllocs(t *testing.T, n, ranks int) (allocs uint64, msgs int64) {
	t.Helper()
	sys := mat.NewRandomSystem(n, 3)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	_, w := runParallel(t, sys, ranks, ParallelOptions{ChargeCosts: true})
	runtime.ReadMemStats(&ms)
	msgs, _ = w.Traffic()
	return ms.Mallocs - before, msgs
}

// TestSolveParallelAllocsPerMessage bounds what an IMe solve asks of the
// host's allocator per simulated message. The engine's own message path
// allocates nothing in steady state (internal/mpi/alloc_test.go); this
// catches a solver change that re-introduces a per-level allocation, such
// as the row-sweep closure that used to cost one per level per rank.
func TestSolveParallelAllocsPerMessage(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	// A GC cycle empties the pools; keep one from landing mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ranks = 16
	for _, n := range []int{64, 128} { // warm the pools at both payload sizes
		solveAllocs(t, n, ranks)
	}
	// Scheduling noise (a buffer parked on another P, a goroutine's first
	// stack) only ever adds allocations, so the least of three runs is the
	// measurement.
	a64, m64 := solveAllocs(t, 64, ranks)
	a128, m128 := solveAllocs(t, 128, ranks)
	for rep := 1; rep < 3; rep++ {
		a, _ := solveAllocs(t, 64, ranks)
		a64 = min(a64, a)
		a, _ = solveAllocs(t, 128, ranks)
		a128 = min(a128, a)
	}

	// The whole solve: measured 0.13 per message (369 allocations over
	// 2 925 messages; 513–541 with per-pair stream maps, 4 650 before the
	// message path stopped allocating), nearly all of it set-up — world,
	// stream table, one table row per owned row.
	if per := float64(a64) / float64(m64); per > 0.30 {
		t.Errorf("n=64 on %d ranks: %d allocations over %d messages = %.2f per message, budget 0.30", ranks, a64, m64, per)
	}
	// Steady state: what 64 more levels add. Set-up is the same at both
	// orders but for one row per added row and the master's gather index
	// per added level (128 in all, 0.04 per added message); a single
	// allocation per level per rank would add 1 024 (0.35).
	extra, over := float64(a128)-float64(a64), float64(m128-m64)
	if per := extra / over; per > 0.12 {
		t.Errorf("n=64→128 on %d ranks: %.0f more allocations over %.0f more messages = %.2f per message, budget 0.12", ranks, extra, over, per)
	}
	t.Logf("n=64: %d allocs / %d msgs; n=128: %d allocs / %d msgs", a64, m64, a128, m128)
}

// TestColdWorldAllocationBudget bounds a whole charged IMe solve at the
// engine-144 shape (n = 288 over 144 ranks, two rows each) in a fresh
// world: construction, rank goroutines, the stream table, communicators
// and the solve. Most of it is per-world set-up, so this is the test that
// fails if a per-pair map or a per-stream allocation comes back on the
// message path (mpi/mailbox.go). It measured 4 817 with the per-pair
// maps and 2 375–2 419 with the dense stream table; the budget leaves
// about 10 % over that.
func TestColdWorldAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, ranks, budget = 288, 144, 2650
	solveAllocs(t, n, ranks) // warm the pools
	a, _ := solveAllocs(t, n, ranks)
	for range 2 {
		b, _ := solveAllocs(t, n, ranks)
		a = min(a, b)
	}
	t.Logf("n=%d on %d ranks: %d allocations", n, ranks, a)
	if a > budget {
		t.Errorf("n=%d on %d ranks, cold world: %d allocations, budget %d", n, ranks, a, budget)
	}
}

// TestDenseShapeAllocationBudget bounds a whole charged IMe solve at the
// kernel-dense shape (n = 640 over 4 ranks, 160 rows each), where each
// level's row sweep is long. Every sweep runs on its rank's goroutine, so
// the count is the same at any core count; a sweep split across cores
// would add thousands. It measured 1 346; the budget leaves 10 % over
// that.
func TestDenseShapeAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, ranks, budget = 640, 4, 1480
	solveAllocs(t, n, ranks) // warm the pools
	a, _ := solveAllocs(t, n, ranks)
	for range 2 {
		b, _ := solveAllocs(t, n, ranks)
		a = min(a, b)
	}
	t.Logf("n=%d on %d ranks: %d allocations", n, ranks, a)
	if a > budget {
		t.Errorf("n=%d on %d ranks: %d allocations, budget %d", n, ranks, a, budget)
	}
}
