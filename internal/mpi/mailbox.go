package mpi

import "sync"

// Sparse message matching.
//
// The first engine preallocated a dense size² matrix of depth-64 channels
// at world construction — ~1.7 million channels (gigabytes of buffer
// space) for the paper's 1296-rank deployments, almost all of which a
// solver never touches: IMe and ScaLAPACK communicate along broadcast
// trees, rows, and columns, so the active pair set is O(size·log size).
// Following the skeletonised-MPI simulators (SST/macro, SimGrid/SMPI),
// matching state is now lazy and sparse:
//
//   - each destination rank owns one mailShard: a small lock plus a map of
//     per-source streams, created on first use (lock-per-destination-
//     shard). World construction is O(size).
//   - a stream is the FIFO queue of one (src → dst) ordered message
//     sequence: an intrusive singly-linked list of pooled nodes guarded by
//     its own mutex, so two unrelated pairs never contend.
//   - Procs cache the streams they touch, so steady-state messaging takes
//     only the stream's own lock — the shard lock is hit once per pair.
//
// Tag matching (the unexpected-message stash with lookahead) stays at the
// receiver exactly as before; a stream preserves FIFO-per-(src,tag) by
// preserving FIFO per source outright.

// mailboxDepth bounds eager buffering per rank pair; senders block beyond
// it (standard buffered-send backpressure), exactly like the depth the
// dense engine gave its channels.
const mailboxDepth = 64

// msgNode is one pooled list node carrying a queued message, shared
// between in-flight streams and the receiver-side stash.
type msgNode struct {
	msg  message
	next *msgNode
}

// msgNodePool recycles list nodes across streams, stashes, ranks and
// worlds. With the payload pool (bufpool.go) it is what lets a warmed
// send → match → receive → Recycle round trip allocate nothing on the
// host: TestPingPongAllocsPerMessage and TestBcastRecycleAllocsPerMessage
// hold the path to 0.05 allocations per message (measured: under 0.005).
// A pair's first message still allocates its stream, and a GC cycle
// empties both pools.
var msgNodePool = sync.Pool{New: func() any { return new(msgNode) }}

// stream carries the ordered messages of one (src → dst) pair. The dead
// flags are set when the fault plane kills an endpoint (failure.go):
// srcDead means no more messages will ever arrive (the receiver drains
// the queue, then take reports failure); dstDead means nobody will ever
// read again (puts discard instead of blocking on backpressure).
type stream struct {
	mu      sync.Mutex
	sendOK  sync.Cond // space available (count < mailboxDepth)
	recvOK  sync.Cond // message available
	head    *msgNode
	tail    *msgNode
	count   int
	srcDead bool
	dstDead bool
}

func newStream() *stream {
	s := &stream{}
	s.sendOK.L = &s.mu
	s.recvOK.L = &s.mu
	return s
}

// put enqueues msg, blocking while the stream is mailboxDepth deep. A
// message for a dead destination is discarded (its buffer recycled), so
// senders never block on a rank that will not drain its mailbox.
func (s *stream) put(msg message) {
	n := msgNodePool.Get().(*msgNode)
	n.msg = msg
	n.next = nil
	s.mu.Lock()
	for s.count >= mailboxDepth && !s.dstDead {
		s.sendOK.Wait()
	}
	if s.dstDead {
		s.mu.Unlock()
		*n = msgNode{}
		msgNodePool.Put(n)
		PutBuf(msg.data)
		return
	}
	if s.tail == nil {
		s.head = n
	} else {
		s.tail.next = n
	}
	s.tail = n
	s.count++
	s.mu.Unlock()
	s.recvOK.Signal()
}

// take dequeues the oldest message, blocking until one is available. The
// backing node is recycled before returning. When the source is dead and
// the queue drained, take reports failure instead of blocking forever:
// messages handed to the fabric before the crash are still delivered.
func (s *stream) take() (message, bool) {
	s.mu.Lock()
	for s.count == 0 && !s.srcDead {
		s.recvOK.Wait()
	}
	if s.count == 0 {
		s.mu.Unlock()
		return message{}, false
	}
	n := s.head
	s.head = n.next
	if s.head == nil {
		s.tail = nil
	}
	s.count--
	s.mu.Unlock()
	s.sendOK.Signal()
	msg := n.msg
	*n = msgNode{}
	msgNodePool.Put(n)
	return msg, true
}

// markSrcDead wakes receivers: after draining the queue they fail.
func (s *stream) markSrcDead() {
	s.mu.Lock()
	s.srcDead = true
	s.mu.Unlock()
	s.recvOK.Broadcast()
}

// markDstDead wakes blocked senders; their puts turn into discards.
func (s *stream) markDstDead() {
	s.mu.Lock()
	s.dstDead = true
	s.mu.Unlock()
	s.sendOK.Broadcast()
}

// mailShard is one destination rank's matcher: the lazily populated set of
// incoming streams, keyed by source world rank.
type mailShard struct {
	mu      sync.Mutex
	streams map[int]*stream
}

// stream returns the (src → dst) stream, creating it on first use. A
// stream created after an endpoint already died is born poisoned, so the
// failure board and lazy creation can never race a peer into a deadlock.
func (w *World) stream(dst, src int) *stream {
	sh := &w.mail[dst]
	sh.mu.Lock()
	s := sh.streams[src]
	created := s == nil
	if created {
		if sh.streams == nil {
			sh.streams = make(map[int]*stream, 8)
		}
		s = newStream()
		sh.streams[src] = s
	}
	sh.mu.Unlock()
	if created {
		if _, dead := w.fail.get(src); dead {
			s.markSrcDead()
		}
		if _, dead := w.fail.get(dst); dead {
			s.markDstDead()
		}
	}
	return s
}

// txStream returns this rank's cached outgoing stream to world rank dst.
func (p *Proc) txStream(dst int) *stream {
	if s := p.tx[dst]; s != nil {
		return s
	}
	s := p.w.stream(dst, p.rank)
	if p.tx == nil {
		p.tx = make(map[int]*stream, 8)
	}
	p.tx[dst] = s
	return s
}

// rxStream returns this rank's cached incoming stream from world rank src.
func (p *Proc) rxStream(src int) *stream {
	if s := p.rx[src]; s != nil {
		return s
	}
	s := p.w.stream(p.rank, src)
	if p.rx == nil {
		p.rx = make(map[int]*stream, 8)
	}
	p.rx[src] = s
	return s
}

// stashList is the receiver's unexpected-message queue for one source: an
// ordered singly-linked list of pooled nodes. Claiming a matched message
// unlinks its node in place (no tail copying, unlike the earlier slice
// remove, which was quadratic under deep lookahead) and recycles it.
type stashList struct {
	head  *msgNode
	tail  *msgNode
	count int
}

// push appends a message at the tail (arrival order).
func (l *stashList) push(msg message) {
	n := msgNodePool.Get().(*msgNode)
	n.msg = msg
	n.next = nil
	if l.tail == nil {
		l.head = n
	} else {
		l.tail.next = n
	}
	l.tail = n
	l.count++
}

// claim removes and returns the earliest message with the given tag.
func (l *stashList) claim(tag int) (message, bool) {
	var prev *msgNode
	for n := l.head; n != nil; prev, n = n, n.next {
		if n.msg.tag != tag {
			continue
		}
		if prev == nil {
			l.head = n.next
		} else {
			prev.next = n.next
		}
		if l.tail == n {
			l.tail = prev
		}
		l.count--
		msg := n.msg
		*n = msgNode{}
		msgNodePool.Put(n)
		return msg, true
	}
	return message{}, false
}
