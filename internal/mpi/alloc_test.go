package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation budgets of the message path. The docs (mailbox.go, bufpool.go,
// DESIGN.md "Engine scalability") state what a message costs the host's
// allocator in steady state; these tests are what keeps the statement true.
// They measure a warmed path: pools filled, streams and sequence maps
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
