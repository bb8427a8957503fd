package ime

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// Overlapped IMeP: the communication/computation-overlap variant that the
// IMe literature credits for the method's strong scaling, and that the
// analytic engine's Overlap mode models. Because IMe has no pivoting, the
// next level's pivot row is known as soon as the current update touches
// it. The owner therefore updates that row *first*, normalises it and
// ships it to every rank with buffered sends before updating the rest
// of its block — so by the time the other ranks finish their own updates,
// the payload has long arrived and no rank idles on the broadcast. The
// last-row chunks ride buffered sends to the master the same way, and
// the per-level h broadcast (pure bookkeeping — no rank's compute consumes
// it) is dropped.
//
// The arithmetic is identical to SolveParallel: rows update independently,
// so reordering them within a rank changes nothing, and the result matches
// bit for bit.

// Tag spaces of the overlapped protocol (user tags must be non-negative).
// Levels are 1-based, so 2l and 2l+1 never collide across levels.
func pivotTag(l int) int { return 2 * l }
func chunkTag(l int) int { return 2*l + 1 }

// ExpectedMessagesOverlapped is the exact message count of the overlapped
// variant: the two init broadcasts, then per level the flat pivot
// distribution (N−1) and the last-row chunks (N−1), and the final solution
// broadcast — the h broadcast is gone.
func ExpectedMessagesOverlapped(n, ranks int) int64 {
	if ranks <= 1 {
		return 0
	}
	perLevel := int64(2 * (ranks - 1))
	return int64(2*(ranks-1)) + int64(n)*perLevel + int64(ranks-1)
}

// solveOverlapped runs the overlapped protocol. Preconditions are checked
// by SolveParallel.
func solveOverlapped(p *mpi.Proc, c *mpi.Comm, sys *mat.System, st *parallelState, opts ParallelOptions, me int) ([]float64, error) {
	n := st.n
	ranks := st.ranks

	// Init broadcasts as in the synchronous variant; transport buffers go
	// straight back to the pool.
	h0, err := p.Bcast(c, masterRank, st.h)
	if err != nil {
		return nil, err
	}
	if me != masterRank && len(h0) == len(st.h) {
		copy(st.h, h0)
	}
	p.Recycle(h0)
	var initCol []float64
	if me == masterRank {
		initCol = mpi.GetBuf(n)
		for i := 0; i < n; i++ {
			initCol[i] = sys.A.At(i, n-1) * (1 / sys.A.At(i, i))
		}
	}
	got, err := p.Bcast(c, masterRank, initCol)
	if err != nil {
		return nil, err
	}
	p.Recycle(got)
	if me == masterRank {
		mpi.PutBuf(initCol)
	}

	// Level n's payload has no earlier level to hide behind: its owner
	// normalises and ships it now.
	if OwnerOf(n, ranks, n-1) == me {
		if err := shipPivot(p, c, st, n); err != nil {
			return nil, err
		}
	}

	for l := n; l >= 1; l-- {
		ph := p.BeginPhase("elimination-level", l)
		lvlStart := p.Clock()
		if err := overlappedLevel(p, c, st, l, opts.ChargeCosts); err != nil {
			return nil, fmt.Errorf("ime: overlapped level %d: %w", l, err)
		}
		p.EndPhase(ph)
		if me == masterRank {
			st.mLevelS.Add(p.Clock() - lvlStart)
			st.mLevels.Inc()
		}
	}

	return p.Bcast(c, masterRank, st.h)
}

// shipPivot normalises the owner's local pivot row of level l and sends
// the payload (row segment + pre-normalisation pivot) to every other rank
// with buffered sends, stashing it locally for the owner's own use.
func shipPivot(p *mpi.Proc, c *mpi.Comm, st *parallelState, l int) error {
	row := st.row(l - 1)
	piv := row[l-1]
	if math.Abs(piv) < pivotTolerance {
		return fmt.Errorf("%w: pivot %g at level %d", ErrSingular, piv, l)
	}
	kernel.Scale(1/piv, row[:l])
	// The payload must survive until level l is processed while level l+1's
	// payload may still be live, so it gets its own pooled buffer (not a
	// shared scratch); overlappedLevel recycles it. Send copies, so the
	// buffer stays exclusively owned.
	payload := mpi.GetBuf(l + 1)
	copy(payload, row[:l])
	payload[l] = piv
	for r := 0; r < st.ranks; r++ {
		if r == st.me {
			continue
		}
		if err := p.Send(c, r, pivotTag(l), payload); err != nil {
			return err
		}
	}
	st.pendingPivot = payload
	return nil
}

// overlappedLevel runs one level: obtain the (long-since-sent) pivot
// payload, update the next pivot row first and ship it, update the rest,
// ship the multiplier chunk to the master, and (master only) fold the
// chunks into h.
func overlappedLevel(p *mpi.Proc, c *mpi.Comm, st *parallelState, l int, charge bool) error {
	n := st.n
	owner := OwnerOf(n, st.ranks, l-1)

	var payload []float64
	if st.me == owner {
		payload = st.pendingPivot
		st.pendingPivot = nil
	} else {
		var err error
		payload, err = p.Recv(c, owner, pivotTag(l))
		if err != nil {
			return err
		}
	}
	if len(payload) != l+1 {
		return fmt.Errorf("pivot payload length %d, want %d", len(payload), l+1)
	}
	pr, piv := payload[:l], payload[l]

	// Lookahead: if this rank owns the next pivot row, update and ship it
	// before anything else so the other ranks' level l−1 never waits.
	ms := st.msScratch()
	done := -1
	if nextPivot := l - 2; l > 1 && st.owns(nextPivot) { // 0-based row of level l−1
		ii := nextPivot - st.lo
		st.eliminateSpan(ii, ii+1, l, -1, pr)
		if err := shipPivot(p, c, st, l-1); err != nil {
			return err
		}
		done = nextPivot
	}
	// Bulk sweep over the remaining owned rows.
	st.eliminateRows(l, done, pr)
	if st.cs != nil {
		st.cs.step(l, pr, piv)
	}
	flops := LevelFlops(n, l) * float64(st.hi-st.lo) / float64(n)
	st.mFlops.Add(flops)
	if charge {
		p.ComputeFlops(flops, EffFlopsPerCore, flops*DramBytesPerFlop)
	}
	// pr is dead past this point; both the owner's pooled pendingPivot and
	// the received transport copy are exclusively owned here.
	p.Recycle(payload)

	// Multiplier chunks to the master; sends are buffered, so the slave
	// does not wait (Send copies, so the ms scratch is free to be reused
	// next level).
	if st.me != masterRank {
		return p.Send(c, masterRank, chunkTag(l), ms)
	}
	st.h[l-1] /= piv
	hl := st.h[l-1]
	for r := 0; r < st.ranks; r++ {
		chunk := ms
		if r != masterRank {
			var err error
			chunk, err = p.Recv(c, r, chunkTag(l))
			if err != nil {
				return err
			}
		}
		rlo, rhi := BlockRange(n, st.ranks, r)
		if len(chunk) != rhi-rlo {
			return fmt.Errorf("rank %d sent %d multipliers, want %d", r, len(chunk), rhi-rlo)
		}
		for i := rlo; i < rhi; i++ {
			if i == l-1 {
				continue
			}
			st.h[i] -= chunk[i-rlo] * hl
		}
		if r != masterRank {
			p.Recycle(chunk)
		}
	}
	return nil
}
