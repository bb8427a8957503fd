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
	// Checksum enables the fault-tolerance checksum rows (the extension
	// the paper cites as IMe's advantage [7]); see ft.go.
	Checksum bool
	// ChecksumSets is the number of independent checksum sets, bounding
	// how many simultaneous rank faults are recoverable (default 1).
	ChecksumSets int
	// InjectSchedule drives solver-level fault injection from a
	// fault.Schedule: every event with Level > 0 wipes the table blocks of
	// its Ranks right before that elimination level is processed, forcing
	// recovery (engine-level Time events are the mpi injector's business
	// and are ignored here). Requires Checksum.
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
// After the last level the master broadcasts h, which now equals x.
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
	if len(faultLevels) > 0 && !opts.Checksum {
		return nil, fmt.Errorf("ime: a solver-level fault schedule requires checksum rows")
	}

	if opts.Overlap {
		if len(faultLevels) > 0 {
			return nil, fmt.Errorf("ime: fault injection requires the synchronous variant")
		}
		return solveOverlapped(p, c, sys, st, opts, me)
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
		if err := solveLevel(p, c, st, l, opts.ChargeCosts); err != nil {
			return nil, fmt.Errorf("ime: level %d: %w", l, err)
		}
		p.EndPhase(ph)
		if st.me == masterRank {
			st.mLevelS.Add(p.Clock() - lvlStart)
			st.mLevels.Inc()
		}
	}

	x, err := p.Bcast(c, masterRank, st.h)
	if err != nil {
		return nil, err
	}
	return x, nil
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
	// levels instead of being reallocated; the collectives copy it before
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

// msScratch returns the reusable multiplier buffer, allocating it on
// first use (covers both the shared-input and scattered constructors).
func (st *parallelState) msScratch() []float64 {
	if st.ms == nil {
		st.ms = make([]float64, st.hi-st.lo)
	}
	return st.ms
}

func newParallelState(sys *mat.System, me, ranks int, opts ParallelOptions) (*parallelState, error) {
	n := sys.N()
	lo, hi := BlockRange(n, ranks, me)
	st := &parallelState{n: n, me: me, ranks: ranks, lo: lo, hi: hi}
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
	if opts.Checksum {
		st.cs = newChecksums(sys, st, opts.ChecksumSets)
	}
	return st, nil
}

// owns reports whether this rank owns global row i.
func (st *parallelState) owns(i int) bool { return i >= st.lo && i < st.hi }

// row returns the owned global row i.
func (st *parallelState) row(i int) []float64 { return st.rows[i-st.lo] }

// eliminateRows applies level l's fundamental formula with pivot row pr to
// the owned block and leaves the multipliers in st.ms (0 for the pivot row
// itself). done is a global row the caller has already updated this level
// (the overlapped variant's lookahead), or -1. Rows update independently,
// so large blocks fan out across the worker pool; the closure that costs
// is built only on that branch — at the paper's one or two rows per rank
// the sweep never leaves the calling goroutine.
func (st *parallelState) eliminateRows(l, done int, pr []float64) {
	st.msScratch() // before the spans, which may run concurrently
	rows := st.hi - st.lo
	grain := 1 + (1<<15)/(2*l+1)
	if kernel.RunsInline(rows, grain) {
		st.eliminateSpan(0, rows, l, done, pr)
		return
	}
	kernel.ParallelFor(rows, grain, func(rlo, rhi int) { st.eliminateSpan(rlo, rhi, l, done, pr) })
}

// eliminateSpan is eliminateRows over the block-local rows [rlo,rhi).
func (st *parallelState) eliminateSpan(rlo, rhi, l, done int, pr []float64) {
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

// solveLevel runs one level of the distributed reduction.
func solveLevel(p *mpi.Proc, c *mpi.Comm, st *parallelState, l int, charge bool) error {
	n := st.n
	// (1) master broadcasts h (the paper's per-level h share). The local
	// copy lives in a stable buffer; the transport buffer goes back to
	// the pool immediately.
	h, err := p.Bcast(c, masterRank, st.h)
	if err != nil {
		return err
	}
	if st.me != masterRank && len(h) == len(st.h) {
		copy(st.h, h)
	}
	p.Recycle(h)

	// (2) pivot-row broadcast by its owner: normalised effective segment
	// plus the pre-normalisation pivot value. The owner assembles it in a
	// scratch buffer reused across levels.
	owner := OwnerOf(n, st.ranks, l-1)
	var payload []float64
	if st.me == owner {
		row := st.row(l - 1)
		piv := row[l-1]
		if math.Abs(piv) < pivotTolerance {
			return fmt.Errorf("%w: pivot %g", ErrSingular, piv)
		}
		kernel.Scale(1/piv, row[:l])
		payload = append(st.pivScratch[:0], row[:l]...)
		payload = append(payload, piv)
		st.pivScratch = payload
	}
	payload, err = p.Bcast(c, owner, payload)
	if err != nil {
		return err
	}
	if len(payload) != l+1 {
		return fmt.Errorf("pivot payload length %d, want %d", len(payload), l+1)
	}
	pr, piv := payload[:l], payload[l]

	// (3) fundamental formula on the owned block; collect the modified
	// last-row (multiplier) entries. Rows update independently, so they
	// fan out across the worker pool with per-row arithmetic — and thus
	// results — bit-identical to the sequential sweep. Only real
	// wall-clock changes; the virtual-time charge below stays the
	// published LevelFlops closed form.
	st.eliminateRows(l, -1, pr)
	ms := st.ms
	if st.cs != nil {
		st.cs.step(l, pr, piv)
	}
	flops := LevelFlops(n, l) * float64(st.hi-st.lo) / float64(n)
	st.mFlops.Add(flops)
	if charge {
		p.ComputeFlops(flops, EffFlopsPerCore, flops*DramBytesPerFlop)
	}

	// (4) slaves send their multiplier chunks; the master updates h.
	chunks, err := p.Gather(c, masterRank, ms)
	if err != nil {
		return err
	}
	if st.me == masterRank {
		st.h[l-1] /= piv
		hl := st.h[l-1]
		for r := 0; r < st.ranks; r++ {
			rlo, rhi := BlockRange(n, st.ranks, r)
			chunk := chunks[r]
			if len(chunk) != rhi-rlo {
				return fmt.Errorf("rank %d sent %d multipliers, want %d", r, len(chunk), rhi-rlo)
			}
			for i := rlo; i < rhi; i++ {
				if i == l-1 {
					continue
				}
				st.h[i] -= chunk[i-rlo] * hl
			}
		}
		for _, chunk := range chunks {
			p.Recycle(chunk)
		}
	}
	// Every rank holds a pooled transport buffer here — Bcast returns a
	// private copy even at the root, so this never aliases pivScratch.
	p.Recycle(payload)
	return nil
}
