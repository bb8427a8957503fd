package mpi

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Message matching: one stream table per world.
//
// The first engine preallocated a dense size² matrix of depth-64 channels
// at world construction — ~1.7 million channels (gigabytes of buffer
// space) for the paper's 1296-rank deployments, almost all of which a
// solver never touches: IMe and ScaLAPACK communicate along broadcast
// trees, rows, and columns, so the active pair set is O(size·log size).
// Following the skeletonised-MPI simulators (SST/macro, SimGrid/SMPI),
// streams are created lazily, and only the table that finds them is
// dense:
//
//   - a stream is the FIFO queue of one (src → dst) ordered message
//     sequence: an intrusive singly-linked list of pooled nodes guarded by
//     its own mutex, so two unrelated pairs never contend. Streams to one
//     destination are carved from a slab of streamSlab.
//   - each destination rank owns one mailShard: its row of the world's
//     stream table, a slice of atomic pointers indexed by source world
//     rank, allocated with the first stream to that rank. Sender and
//     receiver find the stream with one atomic load and no lock, so a
//     rank caches nothing and a lookup allocates nothing. World
//     construction is O(size); a world whose every rank has received
//     holds 8·size² bytes of rows (13.4 MB at 1296 ranks).
//   - creation takes the shard's mutex, which also orders it against the
//     failure walk (failure.go): a stream is either marked by the walk or
//     born poisoned.
//
// Tag matching (the unexpected-message stash with lookahead) stays at the
// receiver: its stash lives in the incoming stream, which only the
// receiver reads. A stream preserves FIFO-per-(src,tag) by preserving FIFO
// per source outright.

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
// A destination's first stream allocates its row and a slab, and a GC
// cycle empties both pools.
var msgNodePool = sync.Pool{New: func() any { return new(msgNode) }}

// stream carries the ordered messages of one (src → dst) pair. The dead
// flags are set when the fault plane kills an endpoint (failure.go):
// srcDead means no more messages will ever arrive (the receiver drains
// the queue, then take reports failure); dstDead means nobody will ever
// read again (puts discard instead of blocking on backpressure). stash is
// the receiver's own: only the destination rank's goroutine touches it.
type stream struct {
	mu sync.Mutex
	// moved is signalled when a message is put or taken: one rank sends on
	// a stream and one receives, and the sender waits only on a full
	// queue and the receiver only on an empty one, so at most one of them
	// waits at any time and one condition serves both.
	moved   sync.Cond
	head    *msgNode
	tail    *msgNode
	count   int
	srcDead bool
	dstDead bool
	stash   stashList
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
		s.moved.Wait()
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
	s.moved.Signal()
}

// take dequeues the oldest message, blocking until one is available. The
// backing node is recycled before returning. When the source is dead and
// the queue drained, take reports failure instead of blocking forever:
// messages handed to the fabric before the crash are still delivered.
func (s *stream) take() (message, bool) {
	s.mu.Lock()
	for s.count == 0 && !s.srcDead {
		s.moved.Wait()
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
	s.moved.Signal()
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
	s.moved.Broadcast()
}

// markDstDead wakes blocked senders; their puts turn into discards.
func (s *stream) markDstDead() {
	s.mu.Lock()
	s.dstDead = true
	s.mu.Unlock()
	s.moved.Broadcast()
}

// mailShard is one destination rank's row of the stream table, indexed by
// source world rank, and the slab its streams are carved from.
type mailShard struct {
	// row points at element 0 of a world-size row, so that publishing the
	// row is one atomic store and allocating it one allocation.
	row atomic.Pointer[atomic.Pointer[stream]]
	// mu serialises stream creation (and the failure walk, failure.go)
	// and guards slab.
	mu   sync.Mutex
	slab []stream
}

// streamSlab is the number of streams carved from one allocation: a
// broadcast tree over p ranks feeds each rank from at most ⌈log₂ p⌉
// parents, so one slab covers most destinations.
const streamSlab = 8

// streams returns the row of dst's incoming streams, nil before the first
// one is created.
func (w *World) streams(dst int) []atomic.Pointer[stream] {
	p := w.mail[dst].row.Load()
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, w.size)
}

// stream returns the (src → dst) stream, creating it on first use.
func (w *World) stream(dst, src int) *stream {
	if row := w.streams(dst); row != nil {
		if s := row[src].Load(); s != nil {
			return s
		}
	}
	return w.newStream(dst, src)
}

// newStream creates the (src → dst) stream unless a racing endpoint just
// did. A stream created after an endpoint already died is born poisoned;
// markFailed walks the rows under the same mutex, so the failure board and
// lazy creation can never race a peer into a deadlock.
func (w *World) newStream(dst, src int) *stream {
	sh := &w.mail[dst]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	row := w.streams(dst)
	if row == nil {
		row = make([]atomic.Pointer[stream], w.size)
		sh.row.Store(&row[0])
	}
	if s := row[src].Load(); s != nil {
		return s
	}
	if len(sh.slab) == 0 {
		sh.slab = make([]stream, streamSlab)
	}
	s := &sh.slab[0]
	sh.slab = sh.slab[1:]
	s.moved.L = &s.mu
	_, s.srcDead = w.fail.get(src)
	_, s.dstDead = w.fail.get(dst)
	row[src].Store(s)
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
