package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// Failure semantics. When the fault plane (internal/fault, wired through
// Options.Fault) crashes a rank, or a rank aborts with an error or panic
// of its own, the rest of the world must find out instead of deadlocking:
// a Recv, Barrier or collective involving the dead rank returns an error
// wrapping ErrRankFailed on every live rank, after charging the busy-wait
// up to the (deterministic) failure time plus the configured detection
// timeout. The machinery has three parts:
//
//   - the failureBoard: the world's registry of dead ranks. Marking a
//     rank closes (and replaces) a broadcast channel so blocked channel
//     waiters — the barrier rendezvous — can re-check.
//   - stream poisoning: every (src→dst) message stream touching the dead
//     rank is marked, waking blocked senders (whose puts become discards)
//     and receivers (who drain what was sent before the failure, then
//     fail).
//   - the crash panic: a rank whose own virtual clock crosses its
//     scheduled crash time charges time and energy up to the crash,
//     lands its charge ledger, marks the board, and unwinds via panic;
//     World.Run converts the unwind into an ErrRankFailed error for that
//     rank.
//
// With no injector and no errors none of this is reachable, and every
// output stays byte-identical.

// ErrRankFailed is the sentinel wrapped by every failure-induced error:
// the crashed rank's own abort, and the error any live rank gets from an
// operation that can no longer complete because a participant is dead.
var ErrRankFailed = errors.New("rank failed")

// failKind distinguishes injected crashes from ranks that aborted with
// their own error or panic; both poison the world identically.
type failKind int

const (
	failCrashed failKind = iota
	failAborted
)

func (k failKind) String() string {
	if k == failCrashed {
		return "crashed"
	}
	return "aborted"
}

// failInfo is one dead rank's record: the virtual time it died, which is
// deterministic, so the detection charges on live ranks are too.
type failInfo struct {
	t    float64
	kind failKind
}

// failureBoard is the world's shared registry of dead ranks.
type failureBoard struct {
	mu     sync.Mutex
	ch     chan struct{} // closed and replaced on every new failure
	failed map[int]failInfo
}

func newFailureBoard() *failureBoard {
	return &failureBoard{ch: make(chan struct{})}
}

// mark records a failure; the first marking wins and returns true.
func (b *failureBoard) mark(rank int, t float64, kind failKind) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.failed[rank]; ok {
		return false
	}
	if b.failed == nil {
		b.failed = make(map[int]failInfo)
	}
	b.failed[rank] = failInfo{t: t, kind: kind}
	close(b.ch)
	b.ch = make(chan struct{})
	return true
}

// get returns the failure record of a rank.
func (b *failureBoard) get(rank int) (failInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	info, ok := b.failed[rank]
	return info, ok
}

// watch returns a channel closed at the next failure (or already closed
// if one raced the caller). Re-fetch after every wake.
func (b *failureBoard) watch() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ch
}

// anyOf returns the failed member of the communicator index with the
// earliest failure time (ties to the lowest rank), so concurrent failures
// yield the same answer regardless of map iteration order.
func (b *failureBoard) anyOf(index []int32) (int, failInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	best, bestInfo, found := -1, failInfo{}, false
	for r, info := range b.failed {
		if index[r] < 0 {
			continue
		}
		if !found || info.t < bestInfo.t || (info.t == bestInfo.t && r < best) {
			best, bestInfo, found = r, info, true
		}
	}
	return best, bestInfo, found
}

// markFailed records the death of a rank and poisons its streams so every
// blocked peer wakes. Idempotent.
func (w *World) markFailed(rank int, t float64, kind failKind) {
	if !w.fail.mark(rank, t, kind) {
		return
	}
	// Each row is walked under its shard's creation mutex: a stream
	// created before the walk is marked here, one created after it sees
	// the board and is born poisoned (mailbox.go).
	for d := range w.mail {
		sh := &w.mail[d]
		sh.mu.Lock()
		if row := w.streams(d); row != nil {
			if d == rank {
				// rank as destination: senders blocked on backpressure
				// resume and their future puts discard.
				for i := range row {
					if s := row[i].Load(); s != nil {
						s.markDstDead()
					}
				}
			} else if s := row[rank].Load(); s != nil {
				// rank as source: receivers drain what was already sent,
				// then fail.
				s.markSrcDead()
			}
		}
		sh.mu.Unlock()
	}
}

// crashPanic carries a fault-injected crash up the rank's stack;
// World.Run converts it into an ErrRankFailed error.
type crashPanic struct {
	rank int
	t    float64
}

// die lands this rank's ledger, marks it crashed at its current clock and
// unwinds. The caller has already charged time and energy up to the crash.
func (p *Proc) die() {
	p.flush()
	p.w.markFailed(p.rank, p.clock, failCrashed)
	if p.w.trace != nil {
		p.MarkInstant("rank-crashed")
	}
	if m := p.w.metrics; m != nil {
		m.faultCrashes.Inc()
	}
	panic(crashPanic{rank: p.rank, t: p.clock})
}

// advanceToCrash charges the partial advance up to the crash time (busy
// seconds at nominal activity, plus the pro-rated memory traffic of the
// interrupted operation) and dies. dt is the full advance that crossed
// the crash time.
func (p *Proc) advanceToCrash(dt, bytes float64) {
	dtc := p.crashAt - p.clock
	if dtc > 0 {
		frac := 1.0
		if dt > 0 {
			frac = dtc / dt
		}
		p.clock = p.crashAt
		p.charge(dtc, float64(bytes*frac))
	}
	p.die()
}

// peerFailed charges the deterministic failure-detection wait (the dead
// rank's failure time plus the detection timeout) and returns the typed
// error for an operation involving a dead peer.
func (p *Proc) peerFailed(peer int) error {
	info, ok := p.w.fail.get(peer)
	if !ok {
		// A poisoned stream implies a board entry; defensive fallback.
		info = failInfo{t: p.clock, kind: failAborted}
	}
	return p.commFailed(peer, info)
}

// commFailed charges the detection wait and builds the ErrRankFailed
// error for a known-dead peer.
func (p *Proc) commFailed(peer int, info failInfo) error {
	p.waitUntil(info.t + p.w.detect)
	if m := p.w.metrics; m != nil {
		m.faultDetections.Inc()
	}
	return fmt.Errorf("mpi: rank %d: world rank %d %s at t=%.9gs: %w",
		p.rank, peer, info.kind, info.t, ErrRankFailed)
}
