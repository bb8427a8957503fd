package mpi

import "fmt"

// Send transmits data to rank dst of communicator c with a user tag
// (tag ≥ 0; negative tags are reserved for collectives). The payload is
// copied, preserving distributed-memory semantics. Send is buffered-eager:
// it blocks only when the (src→dst) stream is mailboxDepth messages deep.
func (p *Proc) Send(c *Comm, dst, tag int, data []float64) error {
	if tag < 0 {
		return fmt.Errorf("mpi: rank %d: user tag %d must be non-negative", p.rank, tag)
	}
	return p.send(c, dst, tag, data)
}

func (p *Proc) send(c *Comm, dst, tag int, data []float64) error {
	// The copy preserving distributed-memory semantics draws on the
	// shared buffer pool instead of allocating per message.
	cp := GetBuf(len(data))
	copy(cp, data)
	return p.sendOwned(c, dst, tag, cp)
}

// SendNoCopy transmits like Send but transfers ownership of data to the
// runtime: no copy is made, and the caller must not read or write the
// slice afterwards. Use it for payloads built fresh for a single
// destination; reused scratch buffers must go through Send.
func (p *Proc) SendNoCopy(c *Comm, dst, tag int, data []float64) error {
	if tag < 0 {
		return fmt.Errorf("mpi: rank %d: user tag %d must be non-negative", p.rank, tag)
	}
	return p.sendOwned(c, dst, tag, data)
}

// sendOwned enqueues data, whose ownership passes to the receiver.
func (p *Proc) sendOwned(c *Comm, dst, tag int, data []float64) error {
	wdst, err := c.worldRank(dst)
	if err != nil {
		return err
	}
	if wdst == p.rank {
		return fmt.Errorf("mpi: rank %d: send to self is not supported; use local data", p.rank)
	}
	// The sender pays CPU overhead; the payload then flies for the wire
	// time determined by locality.
	sendStart := p.clock
	p.advanceBusy(p.w.cost.SendOverhead, 0)
	p.recordMsg("send", sendStart, p.clock, wdst, tag, len(data))
	bytes := float64(len(data) * Float64Bytes)
	arrive := p.clock + p.w.cost.Wire(p.w.sameNode(p.rank, wdst), bytes)
	p.w.countTraffic(p.rank, len(data))
	if m := p.w.metrics; m != nil {
		m.messages.Inc()
		m.bytes.Add(bytes)
	}
	p.w.stream(wdst, p.rank).put(message{tag: tag, data: data, arriveAt: arrive})
	return nil
}

// Recv receives the message with the given tag from rank src of
// communicator c. As in MPI, messages from the same sender with the same
// tag arrive in order, but messages with *different* tags may be consumed
// out of stream order: non-matching messages are stashed until a matching
// Recv claims them. This is what lets lookahead protocols (e.g. the
// overlapped IMe) interleave early pivot sends with per-level traffic.
func (p *Proc) Recv(c *Comm, src, tag int) ([]float64, error) {
	if tag < 0 {
		return nil, fmt.Errorf("mpi: rank %d: user tag %d must be non-negative", p.rank, tag)
	}
	return p.recv(c, src, tag)
}

// stashLimit bounds unexpected-message buffering per sender; exceeding it
// means the program's send/recv tag sequences diverged for good.
const stashLimit = 1 << 16

func (p *Proc) recv(c *Comm, src, tag int) ([]float64, error) {
	wsrc, err := c.worldRank(src)
	if err != nil {
		return nil, err
	}
	if wsrc == p.rank {
		return nil, fmt.Errorf("mpi: rank %d: recv from self is not supported", p.rank)
	}
	// A previously stashed message with this tag matches first (it was
	// sent earlier than anything still queued in the stream).
	in := p.w.stream(p.rank, wsrc)
	sl := &in.stash
	if msg, ok := sl.claim(tag); ok {
		return p.delivered(msg, wsrc, tag), nil
	}
	for {
		msg, ok := in.take()
		if !ok {
			// The sender died and everything it sent before dying has been
			// drained: the matching message will never come.
			return nil, p.peerFailed(wsrc)
		}
		if msg.tag == tag {
			return p.delivered(msg, wsrc, tag), nil
		}
		if sl.count >= stashLimit {
			return nil, fmt.Errorf("mpi: rank %d: %d unexpected messages from world rank %d while waiting for tag %d (first stashed tag %d)",
				p.rank, stashLimit, wsrc, tag, sl.head.msg.tag)
		}
		sl.push(msg)
	}
}

// delivered charges the receipt of a matched message from world rank src
// and hands over its payload.
func (p *Proc) delivered(msg message, src, tag int) []float64 {
	p.waitUntil(msg.arriveAt)
	rs := p.clock
	p.advanceBusy(p.w.cost.RecvOverhead, 0)
	p.recordMsg("recv", rs, p.clock, src, tag, len(msg.data))
	if m := p.w.metrics; m != nil {
		m.recvs.Inc()
	}
	return msg.data
}
