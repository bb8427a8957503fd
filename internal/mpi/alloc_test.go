package mpi

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// Allocation budgets of the message path. The docs (mailbox.go, bufpool.go,
// DESIGN.md "Engine scalability") state what a message costs the host's
// allocator in steady state; these tests are what keeps the statement true.
// They measure a warmed path: pools filled, streams and sequence counters
// created, so that what remains is what every further message pays.

// raceEnabled reports whether the test binary was built with -race. The
// race runtime makes sync.Pool drop a random quarter of what is put into
// it, so pooled paths allocate by design there and the budgets are skipped.
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

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// maxAllocsPerMessage is the steady-state budget of the point-to-point
// and collective paths. The builder measured 0 to 13 allocations over the
// 2 000 and 3 000 messages of the two tests below (0.000–0.004 per
// message; 1.0 before the pool stopped boxing slice headers); the slack
// covers a GC cycle emptying the pools mid-measurement.
const maxAllocsPerMessage = 0.05

func TestBufPoolRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, n := range []int{1, 64, 4096} {
		PutBuf(GetBuf(n)) // warm the class and the box pool
		if got := testing.AllocsPerRun(1000, func() { PutBuf(GetBuf(n)) }); got != 0 {
			t.Errorf("GetBuf(%d) → PutBuf allocates %v times per round trip, want 0", n, got)
		}
	}
}

// TestPingPongAllocsPerMessage bounces a 64-element payload between two
// ranks 1 000 times. Rank 0 reads the allocation and traffic counters
// around its own measured loop; every message of the interval lies between
// the two reads because each round trip completes before the next starts.
func TestPingPongAllocsPerMessage(t *testing.T) {
	skipUnderRace(t)
	const warm, rounds = 50, 1000
	w := newTestWorld(t, 2)
	var allocs uint64
	var msgs int64
	err := w.Run(func(p *Proc) error {
		c := p.World()
		payload := make([]float64, 64)
		if p.Rank() == 1 {
			for i := 0; i < warm+rounds; i++ {
				got, err := p.Recv(c, 0, 7)
				if err != nil {
					return err
				}
				p.Recycle(got)
				if err := p.Send(c, 0, 7, payload); err != nil {
					return err
				}
			}
			return nil
		}
		var a0 uint64
		var m0 int64
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				a0 = mallocs()
				m0, _ = w.Traffic()
			}
			if err := p.Send(c, 1, 7, payload); err != nil {
				return err
			}
			got, err := p.Recv(c, 1, 7)
			if err != nil {
				return err
			}
			p.Recycle(got)
		}
		allocs = mallocs() - a0
		m1, _ := w.Traffic()
		msgs = m1 - m0
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs != 2*rounds {
		t.Fatalf("measured %d messages, want %d", msgs, 2*rounds)
	}
	if per := float64(allocs) / float64(msgs); per > maxAllocsPerMessage {
		t.Errorf("ping-pong: %d allocations over %d messages = %.3f per message, budget %.2f",
			allocs, msgs, per, maxAllocsPerMessage)
	}
}

// TestBcastRecycleAllocsPerMessage runs 200 broadcasts with a rotating
// root over 16 ranks, every receiver recycling its copy — the shape of
// IMe's per-level pivot broadcast. Barriers fence the measured interval.
func TestBcastRecycleAllocsPerMessage(t *testing.T) {
	skipUnderRace(t)
	const size, iters = 16, 200
	const warm = 2 * size // every root once, so every tree edge's stream exists
	w := newTestWorld(t, size)
	var allocs uint64
	var msgs int64
	err := w.Run(func(p *Proc) error {
		c := p.World()
		payload := make([]float64, 64)
		var a0 uint64
		var m0 int64
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				if err := p.Barrier(c); err != nil {
					return err
				}
				if p.Rank() == 0 {
					a0 = mallocs()
					m0, _ = w.Traffic()
				}
				if err := p.Barrier(c); err != nil {
					return err
				}
			}
			got, err := p.Bcast(c, i%size, payload)
			if err != nil {
				return err
			}
			p.Recycle(got)
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		if p.Rank() == 0 {
			allocs = mallocs() - a0
			m1, _ := w.Traffic()
			msgs = m1 - m0
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(iters * (size - 1)); msgs != want {
		t.Fatalf("measured %d messages, want %d", msgs, want)
	}
	if per := float64(allocs) / float64(msgs); per > maxAllocsPerMessage {
		t.Errorf("bcast+recycle: %d allocations over %d messages = %.3f per message, budget %.2f",
			allocs, msgs, per, maxAllocsPerMessage)
	}
}

// TestBarrierAllocsPerGeneration bounds what a barrier generation costs
// the host's allocator: a fresh 144-rank full-load world running ten world
// barriers may allocate at most three objects per generation more than the
// same world running none. Construction and Run's own allocations cancel
// out. A blocked select takes its channel waiters from the runtime's
// per-P caches and allocates fresh ones when the cache of the P it runs on
// is dry, which a rank woken on another P than it slept on can make it:
// a few dozen objects in some windows, more of them on a loaded host. So
// GC is held off (it empties those caches), fillWaiterCache fills them
// beyond what a world can strand on the other Ps, a warm-up run follows, and the least of
// five runs of each is compared.
func TestBarrierAllocsPerGeneration(t *testing.T) {
	skipUnderRace(t)
	const ranks, barriers, perGen = 144, 10, 3
	cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	world := func(n int) uint64 {
		a0 := mallocs()
		w, err := NewWorld(ranks, Options{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(p *Proc) error {
			for range n {
				if err := p.Barrier(p.World()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return mallocs() - a0
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fillWaiterCache(512 * runtime.GOMAXPROCS(0))
	world(barriers)
	none, some := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		none = min(none, world(0))
		some = min(some, world(barriers))
	}
	if extra := float64(some) - float64(none); extra > perGen*barriers {
		t.Errorf("%d barriers of %d ranks allocated %.0f objects beyond the world's own (%d vs %d), budget %d per generation",
			barriers, ranks, extra, some, none, perGen)
	}
}

// TestSenderAndReceiverShareTheStream pins the stream table's one promise:
// whichever endpoint touches a pair first creates the stream, and the
// other finds that same stream in the destination's row. Rank 0 sends to
// rank 1 before rank 1 has looked; rank 2 receives from rank 1 before
// rank 1 sends.
func TestSenderAndReceiverShareTheStream(t *testing.T) {
	w := newTestWorld(t, 3)
	sent := make(chan *stream, 1)
	err := w.Run(func(p *Proc) error {
		c := p.World()
		switch p.Rank() {
		case 0:
			if err := p.Send(c, 1, 5, []float64{1}); err != nil {
				return err
			}
			sent <- w.streams(1)[0].Load()
		case 1:
			s := <-sent
			if s == nil || s.count != 1 {
				return fmt.Errorf("sender's stream %p not in rank 1's row holding its message", s)
			}
			got, err := p.Recv(c, 0, 5)
			if err != nil {
				return err
			}
			p.Recycle(got)
			if s.count != 0 || w.streams(1)[0].Load() != s {
				return fmt.Errorf("rank 1 did not read the stream rank 0 created")
			}
			// Rank 2's receive created the 1 → 2 stream; wait for it.
			var r *stream
			for r == nil {
				runtime.Gosched()
				if row := w.streams(2); row != nil {
					r = row[1].Load()
				}
			}
			if err := p.Send(c, 2, 6, []float64{2}); err != nil {
				return err
			}
			if w.streams(2)[1].Load() != r {
				return fmt.Errorf("rank 1 sent on a stream other than the one rank 2 created")
			}
		case 2:
			got, err := p.Recv(c, 1, 6)
			if err != nil {
				return err
			}
			p.Recycle(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Racing first touches of one pair all get the same stream.
	w = newTestWorld(t, 4)
	var wg sync.WaitGroup
	got := make([]*stream, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = w.stream(3, 1)
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("racing creation %d got stream %p, creation 0 got %p", i, s, got[0])
		}
	}
}

// fillWaiterCache parks n goroutines in a two-channel select at once and
// wakes them, so that the runtime allocates 2n channel waiters (sudogs)
// and keeps them cached until the next GC.
func fillWaiterCache(n int) {
	release, never := make(chan struct{}), make(chan struct{})
	var parked, done sync.WaitGroup
	parked.Add(n)
	done.Add(n)
	for range n {
		go func() {
			defer done.Done()
			parked.Done()
			select {
			case <-release:
			case <-never:
			}
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()
}
