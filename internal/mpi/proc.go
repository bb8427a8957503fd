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
	// seq numbers collective calls per communicator; MPI requires all
	// members to issue collectives in the same order, which makes the
	// local counters agree and serve as matching tags.
	seq map[*Comm]int
	// barGen counts Barrier generations per communicator; all members
	// agree on it for the same reason they agree on seq.
	barGen map[*Comm]uint64
	// tx/rx cache the sparse streams this rank has touched, so steady-
	// state messaging skips the destination shard's lock (mailbox.go).
	tx map[int]*stream
	rx map[int]*stream
	// stash buffers messages received out of tag order, per sending
	// world rank (MPI unexpected-message queue).
	stash map[int]*stashList
	// activity scales the dynamic core power charged while computing
	// (1.0 = nominal). Solvers set it to their algorithm's activity factor
	// so IMe's saturated streaming pipelines draw more power per busy
	// second than ScaLAPACK's blocked kernels, as the paper measured.
	activity float64
	// crashAt is the virtual time the fault plane kills this rank (+Inf
	// when never); the first clock advance crossing it dies (failure.go).
	crashAt float64
	// dilation stretches this rank's compute time when the injector marks
	// it a straggler (1.0 = healthy).
	dilation float64
	// txSeq numbers sends per destination so the injector's per-message
	// delay/drop draws are pure functions of (seed, src, dst, seq).
	txSeq map[int]int
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
	p.w.chargeNode(p.rank, dt, bytes, p.clock)
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
		p.w.chargeNode(p.rank, dt, 0, p.clock)
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
	if p.dilation > 1 {
		// Straggler injection: the rank computes slower, so the same work
		// takes longer and burns more busy-core energy.
		seconds *= p.dilation
	}
	if p.clock+seconds > p.crashAt {
		p.advanceToCrash(seconds, bytes)
	}
	start := p.clock
	p.clock += seconds
	p.w.chargeNode(p.rank, seconds*act, bytes, p.clock)
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

// nextTxSeq returns the per-destination sequence number of the next send.
// Per-rank program order makes it deterministic, which makes the fault
// injector's per-message draws deterministic too.
func (p *Proc) nextTxSeq(dst int) int {
	if p.txSeq == nil {
		p.txSeq = make(map[int]int, 8)
	}
	s := p.txSeq[dst]
	p.txSeq[dst] = s + 1
	return s
}

// nextSeq returns the sequence number of the next collective on c.
func (p *Proc) nextSeq(c *Comm) int {
	if p.seq == nil {
		p.seq = make(map[*Comm]int)
	}
	s := p.seq[c]
	p.seq[c] = s + 1
	return s
}

// nextBarGen returns the generation of the next Barrier call on c. It is
// counted apart from nextSeq so barriers don't perturb collective tags.
func (p *Proc) nextBarGen(c *Comm) uint64 {
	if p.barGen == nil {
		p.barGen = make(map[*Comm]uint64)
	}
	g := p.barGen[c]
	p.barGen[c] = g + 1
	return g
}
