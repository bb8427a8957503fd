package ime

import "repro/internal/mpi"

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
// The variant runs through SolveParallel's level loop (solveLevel with
// ParallelOptions.Overlap); this file holds its two extra steps. The
// arithmetic is identical to the synchronous variant: rows update
// independently, so reordering them within a rank changes nothing, and
// the result matches bit for bit.

// Tag spaces of the overlapped protocol (user tags must be non-negative).
// Levels are 1-based, so 2l and 2l+1 never collide across levels.
func pivotTag(l int) int { return 2 * l }
func chunkTag(l int) int { return 2*l + 1 }

// shipPivot normalises the owner's local pivot row of level l and sends
// the payload to every other rank with buffered sends, stashing it locally
// for the owner's own use.
func shipPivot(p *mpi.Proc, c *mpi.Comm, st *parallelState, l int) error {
	// The payload must survive until level l is processed while level l+1's
	// payload may still be live, so it gets its own pooled buffer (not a
	// shared scratch); solveLevel recycles it. Send copies, so the buffer
	// stays exclusively owned.
	payload, err := st.pivotPayload(mpi.GetBuf(l + 1)[:0], l)
	if err != nil {
		return err
	}
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

// takePivot returns level l's payload: the owner's own stash, or the copy
// the owner shipped a level early.
func takePivot(p *mpi.Proc, c *mpi.Comm, st *parallelState, owner, l int) ([]float64, error) {
	if st.me != owner {
		return p.Recv(c, owner, pivotTag(l))
	}
	payload := st.pendingPivot
	st.pendingPivot = nil
	return payload, nil
}
