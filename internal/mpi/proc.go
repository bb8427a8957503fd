package mpi

import (
	"fmt"

	"repro/internal/rapl"
)

// Proc is one rank's handle on the world. It is confined to the goroutine
// Run started for that rank; none of its methods are safe for concurrent
// use by other goroutines.
type Proc struct {
	w     *World
	rank  int
	clock float64
	world *Comm
	// seq numbers collective calls per communicator, indexed by Comm.id;
	// MPI requires all members to issue collectives in the same order,
	// which makes the local counters agree and serve as matching tags.
	// A rank keeps no stream state: it finds its streams in the world's
	// table (mailbox.go), and messages it received out of tag order wait
	// in the incoming stream's stash.
	seq []int
	// activity scales the dynamic core power charged while computing
	// (1.0 = nominal). Solvers set it to their algorithm's activity factor
	// so IMe's saturated streaming pipelines draw more power per busy
	// second than ScaLAPACK's blocked kernels, as the paper measured.
	activity float64
	// crashAt is the virtual time the fault plane kills this rank (+Inf
	// when never); the first clock advance crossing it dies (failure.go).
	crashAt float64
	// The charge ledger: busy core-seconds and memory bytes charged since
	// the rank last landed them on its node (flush).
	ledBusy, ledBytes float64
	ledDirty          bool
}

// Rank returns the world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.w.size }

// World returns the world communicator (MPI_COMM_WORLD).
func (p *Proc) World() *Comm { return p.world }

// Clock returns the rank's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Location returns the node and socket hosting this rank.
func (p *Proc) Location() (node, socket int) { return p.w.location(p.rank) }

// RaplNode returns the simulated RAPL interface of the node hosting this
// rank — what the monitoring rank of each node reads energy from.
func (p *Proc) RaplNode() *rapl.Node { return p.w.Node(p.rank) }

// charge adds busy core-seconds and memory bytes to the rank's ledger.
// Under tracing it lands them at once, so the counter track samples the
// node at every charge; 0 + x is exact, so the landed values are the
// charge's own.
func (p *Proc) charge(busy, bytes float64) {
	p.ledBusy += busy
	p.ledBytes += bytes
	p.ledDirty = true
	if p.w.trace != nil {
		p.flush()
	}
}

// flush lands the ledger on the rank's node and advances the node's clock
// to the rank's. Ranks flush on entry to Barrier and Fence, when their
// body returns and when they die; every counter read sits behind a Fence
// of the node's communicator, so a read at virtual time T holds exactly
// the charges made up to T, and the message path takes no lock shared
// with the node's other ranks.
func (p *Proc) flush() {
	if !p.ledDirty {
		return
	}
	busy, bytes := p.ledBusy, p.ledBytes
	p.ledBusy, p.ledBytes, p.ledDirty = 0, 0, false
	p.w.chargeNode(p.rank, busy, bytes, p.clock)
}

// advanceBusy moves the virtual clock forward by dt seconds of busy CPU
// time (compute, messaging overhead, or busy-wait — MPI implementations
// poll), charging the node's package energy accordingly.
func (p *Proc) advanceBusy(dt, bytes float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative time advance %g", p.rank, dt))
	}
	if p.clock+dt > p.crashAt {
		p.advanceToCrash(dt, bytes) // charges the partial advance, then unwinds
	}
	p.clock += dt
	p.charge(dt, bytes)
}

// waitUntil models busy-waiting until virtual time t (no-op if t has
// passed). The waiting core polls, so the wait is charged as busy time —
// this is why the paper's synchronization barriers cost energy, not just
// wall time. The clock is assigned t exactly (not incremented by the
// difference) so ranks leaving a barrier agree bit-for-bit.
func (p *Proc) waitUntil(t float64) {
	if t > p.crashAt {
		p.advanceToCrash(t-p.clock, 0) // busy-polls up to the crash, then unwinds
	}
	if t > p.clock {
		start := p.clock
		dt := t - p.clock
		p.clock = t
		p.charge(dt, 0)
		p.record("wait", start, t)
		if m := p.w.metrics; m != nil {
			m.waitS[p.rank].Add(dt)
		}
	}
}

// SetActivity sets the dynamic-power activity factor applied to Compute
// time (f ≤ 0 resets to nominal 1.0). Communication overheads and
// busy-waits always charge at nominal activity.
func (p *Proc) SetActivity(f float64) {
	if f <= 0 {
		f = 1
	}
	p.activity = f
}

// Compute advances the rank's clock by seconds of computation that moved
// bytes of data through the memory hierarchy (charged to the socket's
// DRAM domain). The busy core-seconds charged are scaled by the activity
// factor set via SetActivity.
func (p *Proc) Compute(seconds, bytes float64) {
	if seconds < 0 || bytes < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative compute cost (%g s, %g B)", p.rank, seconds, bytes))
	}
	act := p.activity
	if act == 0 {
		act = 1
	}
	if p.clock+seconds > p.crashAt {
		p.advanceToCrash(seconds, bytes)
	}
	start := p.clock
	p.clock += seconds
	p.charge(float64(seconds*act), bytes)
	p.record("compute", start, p.clock)
	if m := p.w.metrics; m != nil {
		m.computeS[p.rank].Add(seconds)
	}
}

// ComputeFlops charges flops of work executed at rate flops/second moving
// bytes through memory.
func (p *Proc) ComputeFlops(flops, rate, bytes float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("mpi: rank %d: non-positive flop rate %g", p.rank, rate))
	}
	p.Compute(flops/rate, bytes)
}

// nextSeq returns the sequence number of the next collective on c.
func (p *Proc) nextSeq(c *Comm) int {
	if c.id >= len(p.seq) {
		p.seq = append(p.seq, make([]int, c.id+1-len(p.seq))...)
	}
	s := p.seq[c.id]
	p.seq[c.id]++
	return s
}
