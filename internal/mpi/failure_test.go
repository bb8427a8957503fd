package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// failWatchdog runs f and fails the test if it has not returned within the
// deadline — the fault plane's contract is that a crashed rank never
// deadlocks the world, and a hung test under -race would otherwise burn
// the whole package timeout.
func failWatchdog(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("world deadlocked: no return within %v", d)
		return nil
	}
}

// crashWorld builds a world whose victim rank crashes at crashT.
func crashWorld(t *testing.T, size, victim int, crashT float64) *World {
	t.Helper()
	inj, err := fault.New(fault.Config{Events: []fault.Event{{Time: crashT, Ranks: []int{victim}}}}, size)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(size, Options{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRecvFromCrashedRankFails pins the point-to-point half of the
// failure contract: every live rank blocked on a Recv from the victim
// gets ErrRankFailed (no deadlock), charged out to the deterministic
// detection time, while payloads handed to the fabric before the crash
// are still delivered.
func TestRecvFromCrashedRankFails(t *testing.T) {
	const size, victim, crashT = 6, 2, 0.5
	w := crashWorld(t, size, victim, crashT)

	var mu sync.Mutex
	rankErr := make(map[int]error, size)
	err := failWatchdog(t, 60*time.Second, func() error {
		return w.Run(func(p *Proc) error {
			c := p.World()
			var err error
			if p.Rank() == victim {
				// Send one message before the crash, then compute across
				// the crash time and die mid-operation.
				err = p.Send(c, 0, 7, []float64{42})
				if err == nil {
					p.Compute(2*crashT, 0)
					err = fmt.Errorf("victim survived its crash time")
				}
			} else {
				if p.Rank() == 0 {
					// The pre-crash payload must still arrive.
					var data []float64
					data, err = p.Recv(c, victim, 7)
					if err == nil && (len(data) != 1 || data[0] != 42) {
						err = fmt.Errorf("pre-crash payload corrupted: %v", data)
					}
					if err != nil {
						mu.Lock()
						rankErr[0] = err
						mu.Unlock()
						return err
					}
				}
				// This message was never sent: the stream drains, then fails.
				_, err = p.Recv(c, victim, 8)
			}
			mu.Lock()
			rankErr[p.Rank()] = err
			mu.Unlock()
			return err
		})
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run returned %v, want ErrRankFailed", err)
	}
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if !errors.Is(rankErr[r], ErrRankFailed) {
			t.Errorf("live rank %d got %v, want ErrRankFailed", r, rankErr[r])
		}
	}
	if ft, dead := w.Failed(victim); !dead || ft != crashT {
		t.Errorf("victim failure record = (%v, %v), want (%v, true)", ft, dead, crashT)
	}
	// Every live rank aborted with ErrRankFailed, so the board records the
	// whole world: the crash itself plus the abort cascade it triggered.
	for r := 0; r < size; r++ {
		if _, dead := w.Failed(r); !dead {
			t.Errorf("rank %d not on the failure board, want all %d ranks (crash + abort cascade)", r, size)
		}
	}
	if e := w.TotalEnergyJ(); e <= 0 {
		t.Errorf("no energy charged up to the failure: %g J", e)
	}
	if mc := w.MaxClock(); mc < crashT {
		t.Errorf("makespan %g predates the crash at %g", mc, crashT)
	}
}

// TestBarrierWithCrashedRankFails pins the barrier half: a barrier with a
// member that died before arriving returns ErrRankFailed on every live
// rank instead of blocking, names the victim, and charges each survivor's
// wait out to exactly the victim's failure time plus the detection
// timeout.
func TestBarrierWithCrashedRankFails(t *testing.T) {
	const size, victim, crashT = 8, 3, 0.25
	w := crashWorld(t, size, victim, crashT)

	var mu sync.Mutex
	rankErr := make(map[int]error, size)
	rankClock := make(map[int]float64, size)
	err := failWatchdog(t, 60*time.Second, func() error {
		return w.Run(func(p *Proc) error {
			if p.Rank() == victim {
				p.Compute(2*crashT, 0)
				return fmt.Errorf("victim survived its crash time")
			}
			err := p.Barrier(p.World())
			mu.Lock()
			rankErr[p.Rank()] = err
			rankClock[p.Rank()] = p.Clock()
			mu.Unlock()
			return err
		})
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run returned %v, want ErrRankFailed", err)
	}
	ft, dead := w.Failed(victim)
	if !dead {
		t.Fatalf("victim %d not on the failure board", victim)
	}
	names := fmt.Sprintf("world rank %d crashed", victim)
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if !errors.Is(rankErr[r], ErrRankFailed) {
			t.Errorf("live rank %d got %v, want ErrRankFailed", r, rankErr[r])
		} else if !strings.Contains(rankErr[r].Error(), names) {
			t.Errorf("live rank %d got %q, want it to name the victim (%q)", r, rankErr[r], names)
		}
		if want := ft + w.detect; math.Float64bits(rankClock[r]) != math.Float64bits(want) {
			t.Errorf("live rank %d left the failed barrier at %.17g, want failure time + detection timeout %.17g",
				r, rankClock[r], want)
		}
	}
}

// TestBarrierThenCrashDoesNotFailIt pins the other side of the barrier's
// failure rule: a member that arrived and left a Barrier, then crashed,
// does not fail that Barrier for anyone — whether a peer has already
// returned from it or not depends only on goroutine scheduling, and the
// outcome must not. Repeated so that the crash lands while peers are
// still inside the barrier on some iterations.
func TestBarrierThenCrashDoesNotFailIt(t *testing.T) {
	const size, victim, crashT, work = 8, 5, 0.25, 0.1
	for iter := 0; iter < 50; iter++ {
		w := crashWorld(t, size, victim, crashT)
		var mu sync.Mutex
		rankErr := make(map[int]error, size)
		rankClock := make(map[int]float64, size)
		err := failWatchdog(t, 60*time.Second, func() error {
			return w.Run(func(p *Proc) error {
				p.Compute(work, 0)
				err := p.Barrier(p.World())
				mu.Lock()
				rankErr[p.Rank()] = err
				rankClock[p.Rank()] = p.Clock()
				mu.Unlock()
				if err != nil {
					return err
				}
				if p.Rank() == victim {
					p.Compute(2*crashT, 0)
					return fmt.Errorf("victim survived its crash time")
				}
				return nil
			})
		})
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("iteration %d: Run returned %v, want the victim's crash", iter, err)
		}
		release := work + w.cost.BarrierTime(size)
		for r := 0; r < size; r++ {
			if rankErr[r] != nil {
				t.Fatalf("iteration %d: rank %d: barrier failed by a crash after it: %v", iter, r, rankErr[r])
			}
			if rankClock[r] != release {
				t.Fatalf("iteration %d: rank %d left the barrier at %.17g, want %.17g", iter, r, rankClock[r], release)
			}
		}
	}
}

// TestFenceWithCrashedRankFails pins Fence's share of the failure rule: a
// member that died before arriving fails the Fence for every survivor.
func TestFenceWithCrashedRankFails(t *testing.T) {
	const size, victim, crashT = 8, 6, 0.25
	w := crashWorld(t, size, victim, crashT)

	var mu sync.Mutex
	rankErr := make(map[int]error, size)
	err := failWatchdog(t, 60*time.Second, func() error {
		return w.Run(func(p *Proc) error {
			if p.Rank() == victim {
				p.Compute(2*crashT, 0)
				return fmt.Errorf("victim survived its crash time")
			}
			err := p.Fence(p.World())
			mu.Lock()
			rankErr[p.Rank()] = err
			mu.Unlock()
			return err
		})
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run returned %v, want ErrRankFailed", err)
	}
	for r := 0; r < size; r++ {
		if r != victim && !errors.Is(rankErr[r], ErrRankFailed) {
			t.Errorf("live rank %d got %v from Fence, want ErrRankFailed", r, rankErr[r])
		}
	}
}

// TestAllgatherWithCrashedRankFails pins the collective half: the Bruck
// allgather over a world with a dead member fails on every live rank,
// directly (a recv from the victim) or through the abort cascade (a peer
// that already failed).
func TestAllgatherWithCrashedRankFails(t *testing.T) {
	const size, victim, crashT = 8, 5, 0.25
	w := crashWorld(t, size, victim, crashT)

	var mu sync.Mutex
	rankErr := make(map[int]error, size)
	err := failWatchdog(t, 60*time.Second, func() error {
		return w.Run(func(p *Proc) error {
			if p.Rank() == victim {
				p.Compute(2*crashT, 0)
				return fmt.Errorf("victim survived its crash time")
			}
			_, err := p.Allgather(p.World(), []float64{float64(p.Rank())})
			mu.Lock()
			rankErr[p.Rank()] = err
			mu.Unlock()
			return err
		})
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run returned %v, want ErrRankFailed", err)
	}
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if !errors.Is(rankErr[r], ErrRankFailed) {
			t.Errorf("live rank %d got %v, want ErrRankFailed", r, rankErr[r])
		}
	}
}

// TestAbortCascadeWithoutInjector pins the always-on half of the failure
// plane: even with no injector, a rank that returns an error unblocks
// peers waiting on it, and Run prefers the root-cause error over the
// ErrRankFailed cascade it triggered.
func TestAbortCascadeWithoutInjector(t *testing.T) {
	const size = 4
	w, err := NewWorld(size, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rootCause := errors.New("application failure on rank 1")
	runErr := failWatchdog(t, 60*time.Second, func() error {
		return w.Run(func(p *Proc) error {
			if p.Rank() == 1 {
				return rootCause
			}
			// Blocks forever unless the abort cascade wakes it.
			_, err := p.Recv(p.World(), 1, 3)
			return err
		})
	})
	if !errors.Is(runErr, rootCause) {
		t.Fatalf("Run returned %v, want the root cause %v", runErr, rootCause)
	}
	if errors.Is(runErr, ErrRankFailed) {
		t.Fatalf("root-cause error was displaced by the cascade: %v", runErr)
	}
}

// TestCrashedWorldDeterministic pins engine-level determinism under
// injection: the same seed yields identical failure records and final
// clocks across runs, and total energy equal to 1e-9 relative (the
// accumulation order across goroutines is not fixed).
func TestCrashedWorldDeterministic(t *testing.T) {
	run := func() (clock float64, energy float64, failT float64) {
		const size, victim = 6, 2
		w := crashWorld(t, size, victim, 0.4)
		_ = failWatchdog(t, 60*time.Second, func() error {
			return w.Run(func(p *Proc) error {
				if p.Rank() == victim {
					p.Compute(1.0, 64)
					return nil
				}
				if err := p.Barrier(p.World()); err != nil {
					return err
				}
				return nil
			})
		})
		ft, _ := w.Failed(victim)
		return w.MaxClock(), w.TotalEnergyJ(), ft
	}
	c1, e1, f1 := run()
	c2, e2, f2 := run()
	if c1 != c2 {
		t.Errorf("final clocks differ across identical runs: %.17g vs %.17g", c1, c2)
	}
	if f1 != f2 {
		t.Errorf("failure times differ across identical runs: %.17g vs %.17g", f1, f2)
	}
	if rel := math.Abs(e1-e2) / math.Max(e1, 1); rel > 1e-9 {
		t.Errorf("energies differ beyond tolerance: %.17g vs %.17g", e1, e2)
	}
}

// TestInactiveInjectorIsFreeOfSideEffects pins the byte-identity
// requirement at the engine level: a zero-config injector must leave
// clocks, traffic and energy exactly identical to a nil one.
func TestInactiveInjectorIsFreeOfSideEffects(t *testing.T) {
	run := func(withInjector bool) (clock, energy float64, msgs, vol int64) {
		opts := Options{}
		if withInjector {
			inj, err := fault.New(fault.Config{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			opts.Fault = inj
		}
		w, err := NewWorld(4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(p *Proc) error {
			p.Compute(1e-3, 4096)
			if p.Rank()%2 == 0 {
				if err := p.Send(p.World(), p.Rank()+1, 1, []float64{1, 2, 3}); err != nil {
					return err
				}
			} else {
				if _, err := p.Recv(p.World(), p.Rank()-1, 1); err != nil {
					return err
				}
			}
			return p.Barrier(p.World())
		}); err != nil {
			t.Fatal(err)
		}
		m, v := w.Traffic()
		return w.MaxClock(), w.TotalEnergyJ(), m, v
	}
	c1, e1, m1, v1 := run(false)
	c2, e2, m2, v2 := run(true)
	if c1 != c2 || e1 != e2 || m1 != m2 || v1 != v2 {
		t.Errorf("inactive injector perturbed the run: clock %.17g vs %.17g, energy %.17g vs %.17g, traffic (%d,%d) vs (%d,%d)",
			c1, c2, e1, e2, m1, v1, m2, v2)
	}
}

// TestStreamBornPoisoned pins lazy creation against the failure board: a
// stream first touched after one of its endpoints died is created already
// marked, so a receive from the dead rank fails instead of blocking and
// sends to it discard instead of filling the queue and blocking. First
// directly on the table, then through a world whose rank 2 aborts before
// any stream to or from it exists.
func TestStreamBornPoisoned(t *testing.T) {
	const dead = 2
	w := newTestWorld(t, 3)
	w.markFailed(dead, 0.5, failCrashed)
	if s := w.stream(0, dead); !s.srcDead || s.dstDead {
		t.Errorf("stream %d → 0 created after the crash: srcDead %v dstDead %v, want true false", dead, s.srcDead, s.dstDead)
	}
	if s := w.stream(dead, 1); s.srcDead || !s.dstDead {
		t.Errorf("stream 1 → %d created after the crash: srcDead %v dstDead %v, want false true", dead, s.srcDead, s.dstDead)
	}

	w = newTestWorld(t, 3)
	var recvErr error
	err := failWatchdog(t, 60*time.Second, func() error {
		return w.Run(func(p *Proc) error {
			c := p.World()
			if p.Rank() == dead {
				return errors.New("aborted before communicating")
			}
			for {
				next := w.fail.watch()
				if _, ok := w.Failed(dead); ok {
					break
				}
				<-next
			}
			if p.Rank() == 0 {
				_, recvErr = p.Recv(c, dead, 1)
				return nil
			}
			for i := range 2 * mailboxDepth {
				if err := p.Send(c, dead, 1, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err == nil || errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run returned %v, want the dead rank's own abort", err)
	}
	if !errors.Is(recvErr, ErrRankFailed) {
		t.Errorf("receive from a rank dead before the stream existed: %v, want ErrRankFailed", recvErr)
	}
	if s := w.stream(0, dead); !s.srcDead || s.dstDead {
		t.Errorf("stream %d → 0: srcDead %v dstDead %v, want true false", dead, s.srcDead, s.dstDead)
	}
	if s := w.stream(dead, 1); s.srcDead || !s.dstDead || s.count != 0 {
		t.Errorf("stream 1 → %d: srcDead %v dstDead %v with %d queued, want false true 0", dead, s.srcDead, s.dstDead, s.count)
	}
}

// Failed reports whether a rank is dead (crashed or aborted) and the
// virtual time it died.
func (w *World) Failed(rank int) (t float64, dead bool) {
	info, ok := w.fail.get(rank)
	return info.t, ok
}
