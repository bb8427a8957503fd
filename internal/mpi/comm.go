package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Comm is a communicator: an ordered group of world ranks. A single Comm
// value is shared by all member goroutines (its barrier state synchronises
// them); per-rank views are expressed by passing the Proc to operations.
type Comm struct {
	id    int
	ranks []int   // world ranks in comm-rank order
	index []int32 // world rank → comm rank, -1 for non-members
	bar   commBarrier
}

func newWorldComm(w *World) *Comm {
	ranks := make([]int, w.size)
	for i := range ranks {
		ranks[i] = i
	}
	return newComm(w, 0, ranks)
}

func newComm(w *World, id int, ranks []int) *Comm {
	c := &Comm{id: id, ranks: ranks, index: make([]int32, w.size)}
	for r := range c.index {
		c.index[r] = -1
	}
	for i, r := range ranks {
		c.index[r] = int32(i)
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns p's rank within c, or an error when p is not a member.
func (c *Comm) Rank(p *Proc) (int, error) {
	r := c.index[p.rank]
	if r < 0 {
		return 0, fmt.Errorf("mpi: world rank %d is not in communicator %d", p.rank, c.id)
	}
	return int(r), nil
}

// worldRank translates a comm rank to a world rank.
func (c *Comm) worldRank(commRank int) (int, error) {
	if commRank < 0 || commRank >= len(c.ranks) {
		return 0, fmt.Errorf("mpi: comm rank %d out of range [0,%d)", commRank, len(c.ranks))
	}
	return c.ranks[commRank], nil
}

// commBarrier is the rendezvous behind Barrier and Fence. It also merges
// virtual clocks: every member learns the latest clock among the members
// of its generation.
//
// It is central: arrivals meet under one mutex, and the last member of a
// generation releases the others by closing the generation's done
// channel. The lock is held for a counter increment and a max, so it is
// no hot spot, and a generation costs the host two objects. Virtual time
// does not depend on this: CostModel.BarrierTime charges the ⌈log₂ p⌉
// stages of the MPI barrier being modelled.
type commBarrier struct {
	mu  sync.Mutex
	cur *barrierGen // the generation arrivals join; nil until one arrives
}

// barrierGen is one barrier generation of a communicator.
type barrierGen struct {
	arrived  int
	maxClock float64
	done     chan struct{} // closed by the last arrival
}

// Barrier synchronises all members of c (MPI_Barrier). The released clock
// is the same for every rank; waiting is charged as busy polling.
func (p *Proc) Barrier(c *Comm) error {
	if _, err := c.Rank(p); err != nil {
		return err
	}
	if m := p.w.metrics; m != nil {
		m.barriers.Inc()
	}
	start := p.clock
	maxClock, err := p.rendezvous(c)
	if err != nil {
		return err
	}
	p.waitUntil(maxClock + p.w.cost.BarrierTime(len(c.ranks)))
	p.recordCollective("barrier", start, 0)
	return nil
}

// Fence is a host-side rendezvous of c's members that costs no virtual
// time: no member returns before every member has called it, and every
// member has landed its charge ledger on its node by then. It is not an
// MPI operation but the simulator's means of ordering what virtual time
// alone does not order. A rank is released from a Barrier before its
// peers have charged their wait up to the release time, so whoever reads
// the node's energy counters right after one fences the node first (every
// charge up to the release time has then landed) and again after the read
// (no member has charged past it). Like Barrier it reports a dead member
// instead of waiting for it.
func (p *Proc) Fence(c *Comm) error {
	if _, err := c.Rank(p); err != nil {
		return err
	}
	_, err := p.rendezvous(c)
	return err
}

// rendezvous lands p's ledger, waits until every member of c has arrived
// at the same generation, and returns the latest clock among them. A
// member that died before arriving fails the generation for every
// survivor; one that arrived and died later does not.
func (p *Proc) rendezvous(c *Comm) (float64, error) {
	p.flush()
	if len(c.ranks) == 1 {
		return p.clock, nil
	}
	b := &c.bar
	b.mu.Lock()
	g := b.cur
	if g == nil {
		g = &barrierGen{maxClock: p.clock, done: make(chan struct{})}
		b.cur = g
	}
	g.arrived++
	if p.clock > g.maxClock {
		g.maxClock = p.clock
	}
	if g.arrived == len(c.ranks) {
		b.cur = nil
		b.mu.Unlock()
		close(g.done)
		return g.maxClock, nil
	}
	b.mu.Unlock()
	for {
		fw := p.w.fail.watch()
		select {
		case <-g.done:
			return g.maxClock, nil
		default:
		}
		if r, info, ok := p.w.fail.anyOf(c.index); ok {
			// A member that arrived closed done before it could die, so
			// done is probed again after the board: if still open, the
			// dead member never arrived and this generation can never
			// complete. Later arrivals start their own, which fails the
			// same way.
			select {
			case <-g.done:
				return g.maxClock, nil
			default:
			}
			b.mu.Lock()
			if b.cur == g {
				b.cur = nil
			}
			b.mu.Unlock()
			return 0, p.commFailed(r, info)
		}
		select {
		case <-g.done:
			return g.maxClock, nil
		case <-fw:
		}
	}
}

// splitKey identifies one split group so that exactly one Comm is created
// per group and shared by its members.
type splitKey struct {
	parent int
	seq    int
	color  int
}

// commRegistry hands out shared Comm instances for splits: the first
// member of a group to arrive creates the communicator, the rest share it.
type commRegistry struct {
	mu     sync.Mutex
	nextID int
	comms  map[splitKey]*Comm
}

func (w *World) sharedComm(key splitKey, ranks []int) *Comm {
	reg := &w.comms
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.comms == nil {
		reg.nextID = 1
		reg.comms = make(map[splitKey]*Comm)
	}
	if c, ok := reg.comms[key]; ok {
		return c
	}
	c := newComm(w, reg.nextID, ranks)
	reg.nextID++
	reg.comms[key] = c
	return c
}

// CommSplit partitions c by color, ordering each new communicator by key
// then by current rank (MPI_Comm_split). Ranks passing color < 0
// (MPI_UNDEFINED) receive nil.
func (p *Proc) CommSplit(c *Comm, color, key int) (*Comm, error) {
	if _, err := c.Rank(p); err != nil {
		return nil, err
	}
	seq := p.nextSeq(c)
	p.countCollective(opSplit)
	start := p.clock
	// Exchange (color, key) pairs; the payload rides the normal collective
	// machinery so its cost is accounted like real MPI_Comm_split traffic.
	pair := [2]float64{float64(color), float64(key)}
	all, err := p.allgatherFlat(c, seq, pair[:])
	p.recordCollective("comm_split", start, 2*c.Size())
	if err != nil {
		return nil, err
	}
	defer PutBuf(all)
	if color < 0 {
		return nil, nil
	}
	// Members of my color, as parent comm ranks; then ordered, then
	// translated to world ranks in place.
	n := 0
	for r := 0; r < c.Size(); r++ {
		if int(all[2*r]) == color {
			n++
		}
	}
	ranks := make([]int, 0, n)
	for r := 0; r < c.Size(); r++ {
		if int(all[2*r]) == color {
			ranks = append(ranks, r)
		}
	}
	slices.SortFunc(ranks, func(a, b int) int {
		return cmp.Or(cmp.Compare(int(all[2*a+1]), int(all[2*b+1])), cmp.Compare(a, b))
	})
	for i, r := range ranks {
		ranks[i] = c.ranks[r]
	}
	return p.w.sharedComm(splitKey{parent: c.id, seq: seq, color: color}, ranks), nil
}

// CommSplitTypeShared groups the ranks that share a node, the analog of
// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED) the paper's framework uses to
// build its per-node communicators (§4).
func (p *Proc) CommSplitTypeShared(c *Comm) (*Comm, error) {
	node, _ := p.w.location(p.rank)
	return p.CommSplit(c, node, 0)
}
