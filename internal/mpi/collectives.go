package mpi

import "fmt"

// Collective opcodes, encoded into reserved negative tags so collective
// traffic can never collide with user point-to-point tags.
const (
	opBcast = iota + 1
	opGather
	opAllgather
	opAllreduce
	opSplit
)

// ctag builds the reserved tag of one stage of one collective call.
func ctag(seq, op, stage int) int { return -((seq<<8 | op<<4 | stage) + 1) }

// countCollective bumps the per-type collective counter when metrics are
// enabled. One predictable branch when they are not.
func (p *Proc) countCollective(op int) {
	if m := p.w.metrics; m != nil {
		m.collectives[op].Inc()
	}
}

// Bcast broadcasts data from comm rank root over a binomial tree
// (MPI_Bcast). Root passes the payload; everyone receives a privately
// owned copy of it as the return value (including root). Exactly Size-1
// messages of len(data) elements are counted, matching the per-broadcast
// message accounting of the paper's M_IMeP formula.
//
// The returned buffer may come from the shared pool; callers that are
// done with it can hand it back with Proc.Recycle.
func (p *Proc) Bcast(c *Comm, root int, data []float64) ([]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("mpi: bcast root %d out of range [0,%d)", root, c.Size())
	}
	seq := p.nextSeq(c)
	p.countCollective(opBcast)
	start := p.clock
	out, err := p.bcast(c, root, me, ctag(seq, opBcast, 0), data)
	p.recordCollective("bcast", start, len(out))
	return out, err
}

// bcast is the tag-explicit binomial broadcast used by Bcast and by the
// composite collectives.
func (p *Proc) bcast(c *Comm, root, me, tag int, data []float64) ([]float64, error) {
	size := c.Size()
	rel := (me - root + size) % size
	// Receive phase: a non-root rank receives exactly once, from the
	// member that differs in rel's lowest set bit; the root falls through
	// with mask at the first power of two covering the communicator.
	received := false
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (rel - mask + root) % size
			got, err := p.recv(c, src, tag)
			if err != nil {
				return nil, err
			}
			data = got
			received = true
			break
		}
		mask <<= 1
	}
	// Send phase: forward to the subtrees below the bit we received on.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			if err := p.send(c, dst, tag, data); err != nil {
				return nil, err
			}
		}
	}
	if received {
		// The received payload is already a privately owned buffer (the
		// sender copied it); return it without another copy.
		return data, nil
	}
	// Root: return a pooled private copy so the caller's slice and the
	// result never alias.
	out := GetBuf(len(data))
	copy(out, data)
	return out, nil
}

// Gather collects each member's payload at comm rank root (MPI_Gatherv
// flavour: contributions may differ in length). The result, indexed by
// comm rank, is returned at root; other ranks get nil.
func (p *Proc) Gather(c *Comm, root int, data []float64) ([][]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("mpi: gather root %d out of range [0,%d)", root, c.Size())
	}
	seq := p.nextSeq(c)
	p.countCollective(opGather)
	start := p.clock
	out, err := p.gather(c, root, me, ctag(seq, opGather, 0), data)
	p.recordCollective("gather", start, len(data))
	return out, err
}

func (p *Proc) gather(c *Comm, root, me, tag int, data []float64) ([][]float64, error) {
	if me != root {
		return nil, p.send(c, root, tag, data)
	}
	out := make([][]float64, c.Size())
	own := GetBuf(len(data))
	copy(own, data)
	out[me] = own
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		got, err := p.recv(c, src, tag)
		if err != nil {
			return nil, err
		}
		out[src] = got
	}
	return out, nil
}

// Allgather gathers equal-length contributions from every member and
// delivers the full, comm-rank-indexed set to all of them, using Bruck's
// algorithm: ceil(log2 n) rounds in which every rank forwards the doubling
// prefix of blocks it has collected so far. Compared to the gather+bcast
// composition it replaces, no rank is a serial hot spot (the old root
// received n−1 messages back to back) and the total volume drops from
// (n−1)(n+1)·len(data) to n(n−1)·len(data); every rank sends exactly
// TreeDepth(n) messages.
//
// The returned blocks are sub-slices of one allocation: unlike the other
// collectives' results they must not be handed to Recycle, and they are
// reclaimed together, by the GC, once the last of them is dropped.
func (p *Proc) Allgather(c *Comm, data []float64) ([][]float64, error) {
	if _, err := c.Rank(p); err != nil {
		return nil, err
	}
	seq := p.nextSeq(c)
	p.countCollective(opAllgather)
	start := p.clock
	out, err := p.allgatherBruck(c, seq, data)
	p.recordCollective("allgather", start, len(data)*c.Size())
	return out, err
}

// allgatherBruck runs the Bruck all-gather. After round k, block i of tmp
// holds the contribution of comm rank (me+i) mod n for i < 2^(k+1); the
// final rotation restores comm-rank indexing.
func (p *Proc) allgatherBruck(c *Comm, seq int, data []float64) ([][]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	size := c.Size()
	per := len(data)
	tmp := GetBuf(size * per)
	copy(tmp[:per], data)
	for k, step := 0, 1; step < size; k, step = k+1, step<<1 {
		cnt := step
		if size-step < cnt {
			cnt = size - step
		}
		tag := ctag(seq, opAllgather, k)
		if err := p.send(c, (me-step+size)%size, tag, tmp[:cnt*per]); err != nil {
			return nil, err
		}
		got, err := p.recv(c, (me+step)%size, tag)
		if err != nil {
			return nil, err
		}
		if len(got) != cnt*per {
			return nil, fmt.Errorf("mpi: allgather length mismatch: received %d elements in round %d, want %d (contributions must be equal length)",
				len(got), k, cnt*per)
		}
		copy(tmp[step*per:], got)
		PutBuf(got)
	}
	// The blocks share tmp. Each is capped at its own length, so appending
	// to one cannot run into the next, and a block handed to Recycle by
	// mistake pools only its own elements instead of storage its siblings
	// still alias.
	out := make([][]float64, size)
	for i := 0; i < size; i++ {
		out[(me+i)%size] = tmp[i*per : (i+1)*per : (i+1)*per]
	}
	return out, nil
}

// allgatherFlat is the gather-to-0 + broadcast all-gather CommSplit
// exchanges its (color, key) pairs with. It returns the contributions
// concatenated in comm-rank order in one pooled buffer the caller owns.
func (p *Proc) allgatherFlat(c *Comm, seq int, data []float64) ([]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	per := len(data)
	parts, err := p.gather(c, 0, me, ctag(seq, opAllgather, 0), data)
	if err != nil {
		return nil, err
	}
	var flat []float64
	if me == 0 {
		flat = GetBuf(per * c.Size())
		for r, part := range parts {
			if len(part) != per {
				return nil, fmt.Errorf("mpi: allgather length mismatch: rank %d sent %d, want %d", r, len(part), per)
			}
			copy(flat[r*per:], part)
			PutBuf(part)
		}
	}
	out, err := p.bcast(c, 0, me, ctag(seq, opAllgather, 1), flat)
	PutBuf(flat)
	if err != nil {
		return nil, err
	}
	if len(out) != per*c.Size() {
		return nil, fmt.Errorf("mpi: allgather received %d elements, want %d", len(out), per*c.Size())
	}
	return out, nil
}

// AllreduceSum element-wise sums equal-length vectors across the
// communicator and returns the total to every member.
func (p *Proc) AllreduceSum(c *Comm, data []float64) ([]float64, error) {
	return p.allreduce(c, data, combineSum)
}

// The allreduce combiners fold one received contribution into acc, which
// allreduce has checked to be of the same length.

func combineSum(acc, in []float64) {
	for i, v := range in {
		acc[i] += v
	}
}

// combineMaxLoc keeps the larger value of two (value, index) pairs and,
// on a tie, the lower index.
func combineMaxLoc(acc, in []float64) {
	if in[0] > acc[0] || (in[0] == acc[0] && in[1] < acc[1]) {
		acc[0], acc[1] = in[0], in[1]
	}
}

// AllreduceMaxLoc implements MPI_MAXLOC over (value, index) pairs: every
// member receives the maximum value and the lowest index attaining it —
// the reduction ScaLAPACK's partial pivoting performs per column.
func (p *Proc) AllreduceMaxLoc(c *Comm, value float64, index int) (float64, int, error) {
	pair := [2]float64{value, float64(index)}
	out, err := p.allreduce(c, pair[:], combineMaxLoc)
	if err != nil {
		return 0, 0, err
	}
	value, index = out[0], int(out[1])
	PutBuf(out)
	return value, index, nil
}

// allreduce runs a binomial reduction to comm rank 0 with the given
// combiner, then broadcasts the result. The accumulator is a pooled
// buffer: a rank that sends its partial result hands the buffer itself to
// the receiver, which returns it to the pool once combined.
func (p *Proc) allreduce(c *Comm, data []float64, combine func(acc, in []float64)) ([]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	seq := p.nextSeq(c)
	p.countCollective(opAllreduce)
	start := p.clock
	defer func() { p.recordCollective("allreduce", start, len(data)) }()
	size := c.Size()
	acc := GetBuf(len(data))
	copy(acc, data)
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask != 0 {
			if err := p.sendOwned(c, me-mask, ctag(seq, opAllreduce, 0), acc); err != nil {
				return nil, err
			}
			acc = nil
			break
		}
		if me+mask < size {
			in, err := p.recv(c, me+mask, ctag(seq, opAllreduce, 0))
			if err != nil {
				return nil, err
			}
			if len(in) != len(acc) {
				return nil, fmt.Errorf("mpi: allreduce length mismatch: %d vs %d", len(in), len(acc))
			}
			combine(acc, in)
			PutBuf(in)
		}
	}
	// Only comm rank 0 still holds acc; the broadcast returns a private
	// copy even there.
	out, err := p.bcast(c, 0, me, ctag(seq, opAllreduce, 1), acc)
	PutBuf(acc)
	return out, err
}
