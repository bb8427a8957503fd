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
	w     *World
	id    int
	ranks []int       // world ranks in comm-rank order
	index map[int]int // world rank → comm rank
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
	c := &Comm{w: w, id: id, ranks: ranks, index: make(map[int]int, len(ranks))}
	for i, r := range ranks {
		c.index[r] = i
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns p's rank within c, or an error when p is not a member.
func (c *Comm) Rank(p *Proc) (int, error) {
	r, ok := c.index[p.rank]
	if !ok {
		return 0, fmt.Errorf("mpi: world rank %d is not in communicator %d", p.rank, c.id)
	}
	return r, nil
}

// worldRank translates a comm rank to a world rank.
func (c *Comm) worldRank(commRank int) (int, error) {
	if commRank < 0 || commRank >= len(c.ranks) {
		return 0, fmt.Errorf("mpi: comm rank %d out of range [0,%d)", commRank, len(c.ranks))
	}
	return c.ranks[commRank], nil
}

// commBarrier is a reusable dissemination barrier that also merges virtual
// clocks: every participant leaves at max(arrival clocks) + barrier cost.
//
// The first engine funnelled every participant through one mutex/condvar,
// which serialises all ranks of the world communicator at every barrier.
// The dissemination scheme (Hensgen–Finkel–Manber) runs ceil(log2 n)
// rounds; in round k, comm rank i passes its running clock maximum to rank
// (i+2^k) mod n and merges the one arriving from (i−2^k) mod n. After the
// last round every rank holds the exact global maximum — the same release
// value the central barrier computed, bit for bit, with no shared hot
// spot. Slot channels have capacity 1 and come in two generation-parity
// sets: a rank can be at most one generation ahead of any rank it signals
// (finishing generation g+1 transitively requires everyone to have
// finished g), so same-parity reuse can never mix generations.
type commBarrier struct {
	once   sync.Once
	rounds int
	// slots[gen&1][round*size + receiver] carries one partial maximum.
	slots [2][]chan float64
}

func (b *commBarrier) init(size int) {
	b.once.Do(func() {
		b.rounds = TreeDepth(size)
		for par := range b.slots {
			slots := make([]chan float64, b.rounds*size)
			for i := range slots {
				slots[i] = make(chan float64, 1)
			}
			b.slots[par] = slots
		}
	})
}

// Barrier synchronises all members of c (MPI_Barrier). The released clock
// is the same for every rank; waiting is charged as busy polling.
func (p *Proc) Barrier(c *Comm) error {
	me, err := c.Rank(p)
	if err != nil {
		return err
	}
	if m := p.w.metrics; m != nil {
		m.barriers.Inc()
	}
	start := p.clock
	maxClock, err := p.rendezvous(c, me)
	if err != nil {
		return err
	}
	p.waitUntil(maxClock + p.w.cost.BarrierTime(len(c.ranks)))
	p.recordCollective("barrier", start, 0)
	return nil
}

// Fence is a host-side rendezvous of c's members that costs no virtual
// time and charges nothing: no member returns before every member has
// called it. It is not an MPI operation but the simulator's means of
// ordering what virtual time alone does not order. A rank is released
// from a Barrier before its peers have charged their wait up to the
// release time, so whoever reads the node's energy counters right after
// one fences the node first (every charge up to the release time has then
// landed) and again after the read (no member has charged past it).
// Like Barrier it reports a dead member instead of waiting for it.
func (p *Proc) Fence(c *Comm) error {
	me, err := c.Rank(p)
	if err != nil {
		return err
	}
	_, err = p.rendezvous(c, me)
	return err
}

// rendezvous runs the dissemination rounds of one barrier generation on
// c, of which p is member me, and returns the latest clock among its
// members.
func (p *Proc) rendezvous(c *Comm, me int) (float64, error) {
	size := len(c.ranks)
	maxClock := p.clock
	if size > 1 {
		b := &c.bar
		b.init(size)
		slots := b.slots[p.nextBarGen(c)&1]
		for k, step := 0, 1; k < b.rounds; k, step = k+1, step<<1 {
			if err := p.slotSend(c, slots[k*size+(me+step)%size], maxClock); err != nil {
				return 0, err
			}
			v, err := p.slotRecv(c, slots[k*size+me])
			if err != nil {
				return 0, err
			}
			if v > maxClock {
				maxClock = v
			}
		}
	}
	return maxClock, nil
}

// slotSend delivers one dissemination-round value, giving up when a
// communicator member is dead: a dead rank never drains its slots, so a
// blocked barrier send could otherwise wait forever. The channel is always
// probed before (and after) consulting the failure board, so a slot value
// that is actually available wins over a concurrent failure — the outcome
// depends only on whether the peer reached this round in program order,
// not on goroutine scheduling.
func (p *Proc) slotSend(c *Comm, ch chan float64, v float64) error {
	for {
		select {
		case ch <- v:
			return nil
		default:
		}
		fw := p.w.fail.watch()
		if r, info, ok := p.w.fail.anyOf(c.index); ok {
			select {
			case ch <- v:
				return nil
			default:
			}
			return p.commFailed(r, info)
		}
		select {
		case ch <- v:
			return nil
		case <-fw:
		}
	}
}

// slotRecv is slotSend's receiving half: it takes the round's merged clock
// or reports the (deterministically chosen) dead member.
func (p *Proc) slotRecv(c *Comm, ch chan float64) (float64, error) {
	for {
		select {
		case v := <-ch:
			return v, nil
		default:
		}
		fw := p.w.fail.watch()
		if r, info, ok := p.w.fail.anyOf(c.index); ok {
			select {
			case v := <-ch:
				return v, nil
			default:
			}
			return 0, p.commFailed(r, info)
		}
		select {
		case v := <-ch:
			return v, nil
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
