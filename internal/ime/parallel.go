package ime

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// ParallelOptions tunes SolveParallel.
type ParallelOptions struct {
	// ChargeCosts enables virtual-time/energy accounting of compute per
	// the published 3/2·n³ complexity. Disable for pure numerics tests.
	ChargeCosts bool
	// Overlap selects the communication/computation-overlap variant (see
	// overlap.go): identical arithmetic, pivot rows shipped one level
	// early with buffered sends, no per-level h broadcast. Not
	// combinable with solver-level fault injection.
	Overlap bool
	// ChecksumSets is the number of independent sets of fault-tolerance
	// checksum rows (the extension the paper cites as IMe's advantage
	// [7]; see ft.go), bounding how many simultaneous rank faults are
	// recoverable. 0 maintains no checksum rows.
	ChecksumSets int
	// InjectSchedule drives solver-level fault injection from a
	// fault.Schedule: every event with Level > 0 wipes the table blocks of
	// its Ranks right before that elimination level is processed, forcing
	// recovery (engine-level Time events are the mpi injector's business
	// and are ignored here). Requires checksum rows.
	InjectSchedule *fault.Schedule
}

// faultLevels gathers the schedule's Level events into one level →
// fault-rank-set map.
func (o ParallelOptions) faultLevels() map[int][]int {
	levels := map[int][]int{}
	if o.InjectSchedule != nil {
		for _, ev := range o.InjectSchedule.Events {
			if ev.Level <= 0 {
				continue
			}
			levels[ev.Level] = append(levels[ev.Level], ev.Ranks...)
		}
	}
	return levels
}

// masterRank is comm rank 0: the paper's master that owns the auxiliary
// vector h and receives the per-level last-row entries.
const masterRank = 0

// SolveParallel solves A·x = b with the column-wise parallel Inhibition
// Method (IMeP) over communicator c. Every rank must pass the same system
// (the paper loads the input from a file visible to all nodes) and calls
// this collectively; all ranks return the solution.
//
// Per level l = n … 1 the protocol follows §2.1 exactly:
//
//  1. the master broadcasts h;
//  2. the owner of table column t_{*,n+l} (pivot row l of G) normalises
//     and broadcasts it, appending the pre-normalisation pivot;
//  3. every rank applies the fundamental formula to its owned block;
//  4. the slaves send the modified last-row entries (the multipliers) of
//     their blocks to the master, which updates h.
//
// After the last level the master broadcasts h, which now equals x. With
// opts.Overlap the same loop runs the overlapped variant (overlap.go):
// step 1 is dropped, step 2's payload was shipped by its owner a level
// early, and step 4's chunks ride buffered sends.
func SolveParallel(p *mpi.Proc, c *mpi.Comm, sys *mat.System, opts ParallelOptions) ([]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	ranks := c.Size()
	if opts.ChargeCosts {
		p.SetActivity(CoreActivity)
		defer p.SetActivity(1)
	}

	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if ranks > sys.N() {
		return nil, fmt.Errorf("ime: %d ranks exceed system order %d", ranks, sys.N())
	}
	st, err := newParallelState(sys, me, ranks, opts)
	if err != nil {
		return nil, err
	}
	st.attachMetrics(p)

	faultLevels := opts.faultLevels()
	if len(faultLevels) > 0 && opts.ChecksumSets < 1 {
		return nil, fmt.Errorf("ime: a solver-level fault schedule requires checksum rows")
	}
	if len(faultLevels) > 0 && opts.Overlap {
		return nil, fmt.Errorf("ime: fault injection requires the synchronous variant")
	}

	// Initialisation broadcasts (the 2(N−1) init messages of M_IMeP): the
	// master shares h and the full initial last column t_{*,2n}, which it
	// derives from the input system.
	n := st.n
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

	// Overlapped, level n's payload has no earlier level to hide behind:
	// its owner normalises and ships it now.
	if opts.Overlap && st.owns(n-1) {
		if err := shipPivot(p, c, st, n); err != nil {
			return nil, fmt.Errorf("ime: level %d: %w", n, err)
		}
	}

	for l := n; l >= 1; l-- {
		if ranks, ok := faultLevels[l]; ok {
			rp := p.BeginPhase("checksum-recovery", l)
			if err := st.injectAndRecover(p, c, ranks); err != nil {
				return nil, err
			}
			p.EndPhase(rp)
			if st.me == masterRank && st.mRecoveries != nil {
				st.mRecoveries.Inc()
			}
		}
		ph := p.BeginPhase("elimination-level", l)
		lvlStart := p.Clock()
		if err := solveLevel(p, c, st, l, opts); err != nil {
			return nil, fmt.Errorf("ime: level %d: %w", l, err)
		}
		p.EndPhase(ph)
		if st.me == masterRank {
			st.mLevelS.Add(p.Clock() - lvlStart)
			st.mLevels.Inc()
		}
	}

	return p.Bcast(c, masterRank, st.h)
}

// parallelState is one rank's share of the reduction.
type parallelState struct {
	n, me, ranks int
	lo, hi       int // owned row range of G
	// rows holds the owned block of G, row-major, rows[i-lo].
	rows [][]float64
	// h is the local copy of the auxiliary vector (authoritative at the
	// master, refreshed by the per-level broadcast elsewhere).
	h []float64
	// cs is the owned block of the checksum columns (nil without FT).
	cs *checksumState
	// pendingPivot stashes the payload the overlapped variant shipped
	// early, for the owner's own consumption at the next level.
	pendingPivot []float64
	// ms is the per-level multiplier scratch (len hi-lo), reused across
	// levels instead of being reallocated; Gather and Send copy it before
	// it is overwritten again.
	ms []float64
	// pivScratch is the owner's reusable pivot-payload build buffer.
	pivScratch []float64
	// Registry instruments, resolved once per solve when the world has
	// metrics enabled; nil instruments no-op, so the fields can be used
	// unconditionally.
	mFlops      *telemetry.Counter
	mLevelS     *telemetry.Counter
	mLevels     *telemetry.Counter
	mRecoveries *telemetry.Counter
}

// attachMetrics resolves the solver's instruments from the world registry
// (no-op when metrics are disabled).
func (st *parallelState) attachMetrics(p *mpi.Proc) {
	reg := p.Metrics()
	if reg == nil {
		return
	}
	st.mFlops = reg.Counter("solver_flops_total", "modelled floating-point operations charged by the solver", "alg", "ime")
	st.mLevelS = reg.Counter("solver_level_seconds_total", "virtual seconds spent in elimination levels, master rank", "alg", "ime")
	st.mLevels = reg.Counter("solver_levels_total", "elimination levels completed, master rank", "alg", "ime")
	st.mRecoveries = reg.Counter("solver_recoveries_total", "checksum recoveries performed, master rank", "alg", "ime")
}

func newParallelState(sys *mat.System, me, ranks int, opts ParallelOptions) (*parallelState, error) {
	n := sys.N()
	lo, hi := BlockRange(n, ranks, me)
	st := &parallelState{n: n, me: me, ranks: ranks, lo: lo, hi: hi, ms: make([]float64, hi-lo)}
	st.rows = make([][]float64, hi-lo)
	for i := lo; i < hi; i++ {
		d := sys.A.At(i, i)
		if math.Abs(d) < pivotTolerance {
			return nil, fmt.Errorf("%w: diagonal %d is %g", ErrSingular, i, d)
		}
		row := make([]float64, n)
		kernel.ScaledCopy(1/d, sys.A.Row(i), row)
		st.rows[i-lo] = row
	}
	st.h = make([]float64, n)
	for i := 0; i < n; i++ {
		d := sys.A.At(i, i)
		if math.Abs(d) < pivotTolerance {
			return nil, fmt.Errorf("%w: diagonal %d is %g", ErrSingular, i, d)
		}
		// b_i·(1/d) rather than b_i/d: bit-identical to the sequential
		// table initialisation, so the two paths agree exactly.
		st.h[i] = sys.B[i] * (1 / d)
	}
	if opts.ChecksumSets > 0 {
		st.cs = newChecksums(sys, st, opts.ChecksumSets)
	}
	return st, nil
}

// owns reports whether this rank owns global row i.
func (st *parallelState) owns(i int) bool { return i >= st.lo && i < st.hi }

// row returns the owned global row i.
func (st *parallelState) row(i int) []float64 { return st.rows[i-st.lo] }

// eliminateRows applies level l's fundamental formula with pivot row pr to
// the block-local rows [rlo,rhi) and leaves their multipliers in st.ms (0
// for the pivot row itself). done is a global row the caller has already
// updated this level (the overlapped variant's lookahead), or -1.
func (st *parallelState) eliminateRows(rlo, rhi, l, done int, pr []float64) {
	ms := st.ms
	for ii := rlo; ii < rhi; ii++ {
		switch st.lo + ii {
		case l - 1:
			ms[ii] = 0 // ms is scratch: the skipped pivot row must be cleared
		case done:
		default:
			row := st.rows[ii]
			m := row[l-1]
			ms[ii] = m
			if m != 0 {
				kernel.Axpy(-m, pr, row[:l])
			}
		}
	}
}

// pivotPayload normalises the owner's pivot row of level l in place and
// appends the payload (normalised row segment + pre-normalisation pivot)
// to dst.
func (st *parallelState) pivotPayload(dst []float64, l int) ([]float64, error) {
	row := st.row(l - 1)
	piv := row[l-1]
	if math.Abs(piv) < pivotTolerance {
		return nil, fmt.Errorf("%w: level %d pivot is %g", ErrSingular, l, piv)
	}
	kernel.Scale(1/piv, row[:l])
	return append(append(dst, row[:l]...), piv), nil
}

// bcastPivot broadcasts level l's payload from its owner, who assembles it
// in a scratch buffer reused across levels. Bcast returns a private pooled
// copy on every rank, the root included, so the result never aliases
// pivScratch.
func bcastPivot(p *mpi.Proc, c *mpi.Comm, st *parallelState, owner, l int) ([]float64, error) {
	var payload []float64
	if st.me == owner {
		var err error
		if payload, err = st.pivotPayload(st.pivScratch[:0], l); err != nil {
			return nil, err
		}
		st.pivScratch = payload
	}
	return p.Bcast(c, owner, payload)
}

// solveLevel runs one level of the distributed reduction; opts.Overlap
// picks how the pivot row arrives and how the multipliers leave.
func solveLevel(p *mpi.Proc, c *mpi.Comm, st *parallelState, l int, opts ParallelOptions) error {
	n := st.n
	if !opts.Overlap {
		// (1) master broadcasts h (the paper's per-level h share). The
		// local copy lives in a stable buffer; the transport buffer goes
		// back to the pool immediately.
		h, err := p.Bcast(c, masterRank, st.h)
		if err != nil {
			return err
		}
		if st.me != masterRank && len(h) == len(st.h) {
			copy(st.h, h)
		}
		p.Recycle(h)
	}

	// (2) the pivot row: broadcast by its owner, or overlapped, the
	// payload its owner shipped a level early.
	owner := OwnerOf(n, st.ranks, l-1)
	var payload []float64
	var err error
	if opts.Overlap {
		payload, err = takePivot(p, c, st, owner, l)
	} else {
		payload, err = bcastPivot(p, c, st, owner, l)
	}
	if err != nil {
		return err
	}
	if len(payload) != l+1 {
		return fmt.Errorf("pivot payload length %d, want %d", len(payload), l+1)
	}
	pr, piv := payload[:l], payload[l]

	// (3) fundamental formula on the owned block; collect the modified
	// last-row (multiplier) entries. Rows update independently, with
	// per-row arithmetic — and thus results — bit-identical to the
	// sequential sweep, so the overlapped lookahead may update the next
	// pivot row first. The virtual-time charge below stays the published
	// LevelFlops closed form.
	done := -1
	if nextPivot := l - 2; opts.Overlap && l > 1 && st.owns(nextPivot) { // 0-based row of level l−1
		ii := nextPivot - st.lo
		st.eliminateRows(ii, ii+1, l, -1, pr)
		if err := shipPivot(p, c, st, l-1); err != nil {
			return err
		}
		done = nextPivot
	}
	st.eliminateRows(0, st.hi-st.lo, l, done, pr)
	if st.cs != nil {
		st.cs.step(l, pr, piv)
	}
	flops := LevelFlops(n, l) * float64(st.hi-st.lo) / float64(n)
	st.mFlops.Add(flops)
	if opts.ChargeCosts {
		p.ComputeFlops(flops, EffFlopsPerCore, flops*DramBytesPerFlop)
	}
	// pr is dead past this point, and every payload is exclusively owned
	// here: a pooled transport copy, or the overlapped owner's stash.
	p.Recycle(payload)

	// (4) the slaves send their multiplier chunks — gathered, or
	// overlapped by buffered sends the slave does not wait on — and the
	// master folds them into h.
	var chunks [][]float64
	if opts.Overlap {
		if st.me != masterRank {
			return p.Send(c, masterRank, chunkTag(l), st.ms)
		}
	} else if chunks, err = p.Gather(c, masterRank, st.ms); err != nil || st.me != masterRank {
		return err
	}
	st.h[l-1] /= piv
	hl := st.h[l-1]
	for r := 0; r < st.ranks; r++ {
		var chunk []float64
		switch {
		case chunks != nil:
			chunk = chunks[r]
		case r == masterRank:
			chunk = st.ms
		default:
			if chunk, err = p.Recv(c, r, chunkTag(l)); err != nil {
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
		if chunks != nil || r != masterRank {
			p.Recycle(chunk)
		}
	}
	return nil
}
