package scalapack

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// ParallelOptions tunes Pdgesv.
type ParallelOptions struct {
	// BlockSize is the block-cyclic/panel width nb (DefaultBlockSize if 0).
	BlockSize int
	// ChargeCosts enables virtual-time/energy accounting of the compute.
	ChargeCosts bool
	// Checkpoint enables periodic in-memory checkpoint/restart of the
	// panel loop (see checkpoint.go); nil disables it.
	Checkpoint *CheckpointPlan
}

// Pdgesv solves A·x = b by block-cyclic parallel Gaussian elimination with
// partial pivoting over communicator c — the ScaLAPACK routine the paper
// benchmarks. Every rank passes the same system and calls collectively;
// all ranks return the full solution vector.
//
// The implementation is the standard right-looking algorithm: per panel,
// the owning process column factorises it with per-column pivot
// allreduces and row exchanges, the pivot list is broadcast row-wise and
// the swaps applied everywhere, the L panel is broadcast row-wise and the
// U block row (plus the transformed right-hand-side segment) column-wise,
// and every rank updates its trailing block with a local GEMM. Distributed
// blocked back-substitution recovers x.
func Pdgesv(p *mpi.Proc, c *mpi.Comm, sys *mat.System, opts ParallelOptions) ([]float64, error) {
	me, err := c.Rank(p)
	if err != nil {
		return nil, err
	}
	grid, err := NewGrid(c.Size())
	if err != nil {
		return nil, err
	}
	nb := opts.BlockSize
	if nb <= 0 {
		nb = DefaultBlockSize
	}
	if opts.ChargeCosts {
		p.SetActivity(CoreActivity)
		defer p.SetActivity(1)
	}

	if err := sys.Validate(); err != nil {
		return nil, err
	}
	nb = min(nb, sys.N())
	if blocks := (sys.N() + nb - 1) / nb; grid.Pr > blocks || grid.Pc > blocks {
		return nil, fmt.Errorf("scalapack: grid %d×%d too large for %d blocks of %d",
			grid.Pr, grid.Pc, blocks, nb)
	}
	st, err := newPdState(p, c, sys, grid, me, nb)
	if err != nil {
		return nil, err
	}
	if opts.ChargeCosts {
		st.charge = true
	}
	st.attachMetrics()

	n, nb := st.n, st.nb
	startK0 := 0
	if plan := opts.Checkpoint; plan != nil && plan.Resume != nil {
		if snap, ok := plan.Resume(me); ok {
			ph := p.BeginPhase("checkpoint-restore", snap.K0/nb)
			if err := st.restore(snap); err != nil {
				return nil, err
			}
			st.chargeCheckpoint(plan, snap.Bytes(), true)
			p.EndPhase(ph)
			startK0 = snap.K0
		}
	}
	steps := 0
	for k0 := startK0; k0 < n; k0 += nb {
		stepStart := p.Clock()
		if err := st.panelStep(k0); err != nil {
			return nil, fmt.Errorf("scalapack: panel at %d: %w", k0, err)
		}
		if st.pr == 0 && st.pc == 0 {
			st.mPanelS.Add(p.Clock() - stepStart)
			st.mPanels.Inc()
		}
		steps++
		if plan := opts.Checkpoint; plan != nil && plan.Every > 0 &&
			steps%plan.Every == 0 && k0+nb < n {
			// Every rank reaches this point at the same panel in program
			// order, so the generation (the resume column) is coherent
			// across the world without extra synchronisation.
			ph := p.BeginPhase("checkpoint", k0/nb)
			snap := st.snapshot(k0 + nb)
			st.chargeCheckpoint(plan, snap.Bytes(), false)
			if plan.Save != nil {
				plan.Save(me, snap)
			}
			p.EndPhase(ph)
		}
	}
	ph := p.BeginPhase("back-substitution", -1)
	x, err := st.backSubstitute()
	p.EndPhase(ph)
	if err != nil {
		return nil, err
	}
	return x, nil
}

// pdState is one rank's share of a Pdgesv run.
type pdState struct {
	p       *mpi.Proc
	c       *mpi.Comm
	grid    Grid
	pr, pc  int
	rowComm *mpi.Comm // the pcs of my process row; my rank there is pc
	colComm *mpi.Comm // the prs of my process column; my rank there is pr
	n, nb   int
	myRows  []int // global rows owned, ascending
	myCols  []int // global cols owned, ascending
	a       *mat.Dense
	b       []float64 // rhs entries for myRows, replicated across my row's pcs
	charge  bool
	// pivots records (j, pv) swaps in elimination order, the ipiv a
	// checkpoint carries (PanelSnapshot.Pivots); sized for all n up front.
	pivots [][2]int
	// panelPivots and panelRows are per-panel scratch (the panel's pivot
	// rows and the local indices of its block rows), reused across panels.
	panelPivots []int
	panelRows   []int
	// Registry instruments (nil when metrics are disabled; telemetry
	// instruments no-op on nil, so they are used unconditionally).
	mFlops  *telemetry.Counter
	mPanelS *telemetry.Counter
	mPanels *telemetry.Counter
}

// attachMetrics resolves the solver's instruments from the world registry
// (no-op when metrics are disabled).
func (st *pdState) attachMetrics() {
	reg := st.p.Metrics()
	if reg == nil {
		return
	}
	st.mFlops = reg.Counter("solver_flops_total", "modelled floating-point operations charged by the solver", "alg", "scalapack")
	st.mPanelS = reg.Counter("solver_level_seconds_total", "virtual seconds spent in panel steps, grid rank (0,0)", "alg", "scalapack")
	st.mPanels = reg.Counter("solver_levels_total", "panel steps completed, grid rank (0,0)", "alg", "scalapack")
}

// newPdState builds one rank's communicator topology and copies its
// block-cyclic pieces of the system into local storage.
func newPdState(p *mpi.Proc, c *mpi.Comm, sys *mat.System, grid Grid, me, nb int) (*pdState, error) {
	n := sys.N()
	pr, pc, err := grid.Coords(me)
	if err != nil {
		return nil, err
	}
	rowComm, err := p.CommSplit(c, pr, pc)
	if err != nil {
		return nil, err
	}
	colComm, err := p.CommSplit(c, pc, pr)
	if err != nil {
		return nil, err
	}
	st := &pdState{
		p: p, c: c, grid: grid, pr: pr, pc: pc,
		rowComm: rowComm, colComm: colComm, n: n, nb: nb,
		myRows: make([]int, 0, Numroc(n, nb, pr, grid.Pr)),
		myCols: make([]int, 0, Numroc(n, nb, pc, grid.Pc)),
	}
	for g := 0; g < n; g++ {
		if o, _ := OwnerAndLocal(g, nb, grid.Pr); o == pr {
			st.myRows = append(st.myRows, g)
		}
		if o, _ := OwnerAndLocal(g, nb, grid.Pc); o == pc {
			st.myCols = append(st.myCols, g)
		}
	}
	st.a = mat.New(len(st.myRows), len(st.myCols))
	st.b = make([]float64, len(st.myRows))
	st.pivots = make([][2]int, 0, n)
	st.panelPivots = make([]int, nb)
	st.panelRows = make([]int, nb)
	for li, gi := range st.myRows {
		src := sys.A.Row(gi)
		dst := st.a.Row(li)
		for lj, gj := range st.myCols {
			dst[lj] = src[gj]
		}
		st.b[li] = sys.B[gi]
	}
	return st, nil
}

// localRow returns the local index of global row g if this rank's process
// row owns it.
func (st *pdState) localRow(g int) (int, bool) {
	o, l := OwnerAndLocal(g, st.nb, st.grid.Pr)
	return l, o == st.pr
}

// localCol is the column counterpart of localRow.
func (st *pdState) localCol(g int) (int, bool) {
	o, l := OwnerAndLocal(g, st.nb, st.grid.Pc)
	return l, o == st.pc
}

// chargeFlops accounts local arithmetic to the virtual clock.
func (st *pdState) chargeFlops(flops float64) {
	if flops > 0 {
		st.mFlops.Add(flops)
	}
	if st.charge && flops > 0 {
		st.p.ComputeFlops(flops, EffFlopsPerCore, flops*DramBytesPerFlop)
	}
}

// panelStep factorises the panel starting at global column k0 and updates
// the trailing matrix and right-hand side.
func (st *pdState) panelStep(k0 int) error {
	n, nb := st.n, st.nb
	kw := nb
	if k0+kw > n {
		kw = n - k0
	}
	k1 := k0 + kw // first column after the panel
	bi := k0 / nb
	pcK := bi % st.grid.Pc
	prK := bi % st.grid.Pr

	// --- Panel factorisation (process column pcK only) ---
	phPanel := st.p.BeginPhase("panel", bi)
	pivots := st.panelPivots[:kw]
	clear(pivots)
	status := 0.0
	if st.pc == pcK {
		for j := k0; j < k1; j++ {
			piv, err := st.factorColumn(j, k0, k1)
			if err != nil {
				// Only genuine singularity rides the coordinated status
				// broadcast; anything else (a failed peer rank, a transport
				// error) must propagate as itself so callers can tell a bad
				// matrix from a dead world.
				if !errors.Is(err, ErrSingular) {
					return err
				}
				status = 1
				break
			}
			pivots[j-k0] = piv
		}
	}

	// Broadcast the pivot list (with a status flag) row-wise so every
	// process column learns the swaps; a singular panel aborts all ranks
	// coherently instead of deadlocking them.
	var build []float64
	if st.pc == pcK {
		build = mpi.GetBuf(kw + 1)
		build[0] = status
		for t, pv := range pivots {
			build[t+1] = float64(pv)
		}
	}
	payload, err := st.p.Bcast(st.rowComm, pcK, build)
	if err != nil {
		return err
	}
	if build != nil {
		mpi.PutBuf(build)
	}
	if payload[0] != 0 {
		st.p.Recycle(payload)
		return fmt.Errorf("%w: panel at column %d", ErrSingular, k0)
	}
	for t := range pivots {
		pivots[t] = int(payload[t+1])
		st.pivots = append(st.pivots, [2]int{k0 + t, pivots[t]})
	}
	st.p.Recycle(payload)

	// --- Apply the row swaps outside the panel, and to b ---
	for t, pv := range pivots {
		j := k0 + t
		if pv == j {
			continue
		}
		if err := st.swapRows(j, pv, func(g int) bool { return g < k0 || g >= k1 }); err != nil {
			return err
		}
		if err := st.swapB(j, pv); err != nil {
			return err
		}
	}
	st.p.EndPhase(phPanel)

	// --- Row-wise broadcast of the panel columns (L11 at prK, L21 below) ---
	phBcast := st.p.BeginPhase("broadcast", bi)
	lpanel, err := st.broadcastPanel(k0, k1, pcK)
	if err != nil {
		return err
	}

	// --- U block row: triangular solve on my trailing columns (prK row) ---
	// and transform of the panel segment of b, then column-wise broadcast.
	if st.pr == prK {
		st.computeURow(k0, k1, lpanel)
	}
	u12, bp, err := st.broadcastURow(k0, k1, prK)
	if err != nil {
		return err
	}
	st.p.EndPhase(phBcast)

	// --- Trailing update: A22 -= L21·U12 and b -= L21·bp ---
	phTrail := st.p.BeginPhase("trailing-update", bi)
	st.trailingUpdate(k0, k1, lpanel, u12, bp)
	st.p.EndPhase(phTrail)

	// Both broadcast payloads are dead now. lpanel is its transport buffer;
	// u12 is the prefix of the U-row buffer (bp is its suffix), and the
	// prefix slice keeps the full capacity, so recycling it returns the
	// whole buffer.
	mpi.PutBuf(lpanel)
	mpi.PutBuf(u12)
	return nil
}

// factorColumn performs the pivot search, swap and elimination for global
// column j inside the panel [k0,k1). Only pcK ranks call it.
func (st *pdState) factorColumn(j, k0, k1 int) (int, error) {
	lj, ok := st.localCol(j)
	if !ok {
		return 0, fmt.Errorf("scalapack: rank (%d,%d) does not own panel column %d", st.pr, st.pc, j)
	}
	// Local candidate among owned rows ≥ j.
	best, bestRow := math.Inf(-1), j
	scanned := 0
	for li := len(st.myRows) - 1; li >= 0; li-- {
		gi := st.myRows[li]
		if gi < j {
			break
		}
		scanned++
		if v := math.Abs(st.a.At(li, lj)); v > best {
			best, bestRow = v, gi
		}
	}
	st.chargeFlops(float64(scanned))
	val, piv, err := st.p.AllreduceMaxLoc(st.colComm, best, bestRow)
	if err != nil {
		return 0, err
	}
	if val <= 0 {
		return 0, fmt.Errorf("%w: column %d", ErrSingular, j)
	}
	// Swap rows j and piv within the panel columns.
	if piv != j {
		if err := st.swapRows(j, piv, func(g int) bool { return g >= k0 && g < k1 }); err != nil {
			return 0, err
		}
	}
	// Broadcast the pivot row segment (cols j..k1) down the process column.
	ownerPr, _ := OwnerAndLocal(j, st.nb, st.grid.Pr)
	var seg []float64
	if st.pr == ownerPr {
		li, _ := st.localRow(j)
		seg = mpi.GetBuf(k1 - j)
		for t := j; t < k1; t++ {
			lt, ok := st.localCol(t)
			if !ok {
				return 0, fmt.Errorf("scalapack: panel column %d not local", t)
			}
			seg[t-j] = st.a.At(li, lt)
		}
	}
	pivRow, err := st.p.Bcast(st.colComm, ownerPr, seg)
	if err != nil {
		return 0, err
	}
	mpi.PutBuf(seg)
	// Eliminate below: L multipliers and panel trailing update. Rows with
	// gi > j form a suffix of the ascending myRows, and the panel columns
	// j+1..k1 are consecutive local columns (one block-cyclic block), so
	// each row's update is a single fused AXPY — bit-identical to the
	// scalar loop. The flop charge is the per-row constant times the row
	// count, exactly what the scalar loop summed.
	s := suffixFrom(st.myRows, j+1)
	nrows := len(st.myRows) - s
	st.eliminateBelow(s, s+nrows, lj, pivRow)
	st.chargeFlops(float64(nrows) * float64(2*(k1-j-1)+1))
	st.p.Recycle(pivRow)
	return piv, nil
}

// eliminateBelow turns local column lj of local rows [lo,hi) into L
// multipliers of the pivot row segment pivRow (pivRow[0] is the pivot) and
// applies them to the rest of the panel columns.
func (st *pdState) eliminateBelow(lo, hi, lj int, pivRow []float64) {
	w := len(pivRow) - 1
	for li := lo; li < hi; li++ {
		row := st.a.Row(li)
		l := row[lj] / pivRow[0]
		row[lj] = l
		if l != 0 && w > 0 {
			kernel.Axpy(-l, pivRow[1:], row[lj+1:lj+1+w])
		}
	}
}

// suffixFrom returns the index of the first entry ≥ g of an ascending
// index list (len(idx) when there is none): myRows and myCols are
// ascending, so the rows or columns from a global index on are a suffix
// of the local layout.
func suffixFrom(idx []int, g int) int {
	i := len(idx)
	for i > 0 && idx[i-1] >= g {
		i--
	}
	return i
}

// swapRows exchanges global rows j and pv across the columns selected by
// keep. Rows on the same process row swap locally; otherwise the two
// owners exchange segments through the column communicator.
func (st *pdState) swapRows(j, pv int, keep func(g int) bool) error {
	prA, _ := OwnerAndLocal(j, st.nb, st.grid.Pr)
	prB, _ := OwnerAndLocal(pv, st.nb, st.grid.Pr)
	var cols []int // local col indices to exchange
	for lj, gj := range st.myCols {
		if keep(gj) {
			cols = append(cols, lj)
		}
	}
	if prA == prB {
		if st.pr != prA || len(cols) == 0 {
			return nil
		}
		liA, _ := st.localRow(j)
		liB, _ := st.localRow(pv)
		rowA, rowB := st.a.Row(liA), st.a.Row(liB)
		for _, lj := range cols {
			rowA[lj], rowB[lj] = rowB[lj], rowA[lj]
		}
		return nil
	}
	if st.pr != prA && st.pr != prB {
		return nil
	}
	mine, other := j, prB
	if st.pr == prB {
		mine, other = pv, prA
	}
	li, _ := st.localRow(mine)
	row := st.a.Row(li)
	// The outbound segment is built fresh for a single destination, so it
	// rides the zero-copy path: ownership passes to the receiver.
	seg := mpi.GetBuf(len(cols))
	for t, lj := range cols {
		seg[t] = row[lj]
	}
	const tagSwap = 101
	seg, err := st.exchange(other, tagSwap, seg)
	if err != nil {
		return err
	}
	if len(seg) != len(cols) {
		return fmt.Errorf("scalapack: swap segment length %d, want %d", len(seg), len(cols))
	}
	for t, lj := range cols {
		row[lj] = seg[t]
	}
	st.p.Recycle(seg)
	return nil
}

// swapB exchanges the replicated right-hand-side entries of global rows j
// and pv (every process column performs the same exchange, mirroring the
// extra-column treatment of b in pdgesv's pdlaswp).
func (st *pdState) swapB(j, pv int) error {
	prA, _ := OwnerAndLocal(j, st.nb, st.grid.Pr)
	prB, _ := OwnerAndLocal(pv, st.nb, st.grid.Pr)
	if prA == prB {
		if st.pr == prA {
			liA, _ := st.localRow(j)
			liB, _ := st.localRow(pv)
			st.b[liA], st.b[liB] = st.b[liB], st.b[liA]
		}
		return nil
	}
	if st.pr != prA && st.pr != prB {
		return nil
	}
	mine, other := j, prB
	if st.pr == prB {
		mine, other = pv, prA
	}
	li, _ := st.localRow(mine)
	const tagSwapB = 102
	out := mpi.GetBuf(1)
	out[0] = st.b[li]
	got, err := st.exchange(other, tagSwapB, out)
	if err != nil {
		return err
	}
	st.b[li] = got[0]
	st.p.Recycle(got)
	return nil
}

// exchange trades out for process row other's buffer of the same tag on
// the column communicator, the lower process row sending first so the
// order is deterministic. out rides the zero-copy path (ownership passes
// to the peer); the returned buffer is the caller's to recycle.
func (st *pdState) exchange(other, tag int, out []float64) ([]float64, error) {
	if st.pr < other {
		if err := st.p.SendNoCopy(st.colComm, other, tag, out); err != nil {
			return nil, err
		}
		return st.p.Recv(st.colComm, other, tag)
	}
	got, err := st.p.Recv(st.colComm, other, tag)
	if err != nil {
		return nil, err
	}
	return got, st.p.SendNoCopy(st.colComm, other, tag, out)
}

// broadcastPanel ships each process row's factored panel columns from pcK
// to the whole row. The returned matrix holds, for every owned row, the
// kw panel-column values (L11 rows for prK, multipliers L21 elsewhere),
// row-major with stride kw, in a pooled buffer the caller recycles.
func (st *pdState) broadcastPanel(k0, k1, pcK int) ([]float64, error) {
	kw := k1 - k0
	var build []float64
	if st.pc == pcK {
		build = mpi.GetBuf(len(st.myRows) * kw)
		for li := range st.myRows {
			row := st.a.Row(li)
			for t := k0; t < k1; t++ {
				lt, _ := st.localCol(t)
				build[li*kw+(t-k0)] = row[lt]
			}
		}
	}
	flat, err := st.p.Bcast(st.rowComm, pcK, build)
	if err != nil {
		return nil, err
	}
	if build != nil {
		mpi.PutBuf(build)
	}
	if len(flat) != len(st.myRows)*kw {
		return nil, fmt.Errorf("scalapack: panel payload %d, want %d", len(flat), len(st.myRows)*kw)
	}
	return flat, nil
}

// computeURow turns rows k0..k1 of my trailing columns into U12 via
// forward substitution with unit-lower L11, and transforms the panel
// segment of b the same way. Only prK ranks call it.
//
// The solve runs a row at a time over the trailing columns, a contiguous
// suffix of every local row: panel row i accumulates
// s = Σ_{t<i} L[i][t]·U[t] with one AXPY per t, in ascending t, into a
// zeroed scratch, then subtracts s once. Per element these are the
// operations of a column-at-a-time substitution, in its order, so U12 has
// its bits (TestComputeURowBitIdentical holds the two to each other).
func (st *pdState) computeURow(k0, k1 int, lpanel []float64) {
	kw := k1 - k0
	// Local row indices of the panel block rows (all owned by prK).
	lis := st.panelRows[:kw]
	for t := 0; t < kw; t++ {
		li, ok := st.localRow(k0 + t)
		if !ok {
			panic(fmt.Sprintf("scalapack: process row lost panel row %d", k0+t))
		}
		lis[t] = li
	}
	ci := suffixFrom(st.myCols, k1)
	nt := len(st.myCols) - ci
	if nt > 0 {
		s := mpi.GetBuf(nt)
		for i := 1; i < kw; i++ {
			clear(s)
			lrow := lpanel[lis[i]*kw : (lis[i]+1)*kw]
			for t := 0; t < i; t++ {
				kernel.Axpy(lrow[t], st.a.Row(lis[t])[ci:], s)
			}
			row := st.a.Row(lis[i])[ci:]
			for j, v := range s {
				row[j] -= v
			}
		}
		mpi.PutBuf(s)
	}
	flops := float64(nt) * float64(kw*kw)
	// b panel: same forward substitution on the replicated segment.
	for i := 1; i < kw; i++ {
		var s float64
		lrow := lpanel[lis[i]*kw : (lis[i]+1)*kw]
		for t := 0; t < i; t++ {
			s += lrow[t] * st.b[lis[t]]
		}
		st.b[lis[i]] -= s
	}
	flops += float64(kw * kw)
	st.chargeFlops(flops)
}

// broadcastURow ships the U block row (my trailing columns) and the
// transformed b panel segment from process row prK down every process
// column. Returns U12 for my columns (kw × nTrailingLocal, row-major) and
// bp (kw): the prefix and suffix of one pooled buffer, which the caller
// recycles through u12.
func (st *pdState) broadcastURow(k0, k1, prK int) (u12, bp []float64, err error) {
	kw := k1 - k0
	ci := suffixFrom(st.myCols, k1)
	nt := len(st.myCols) - ci
	var build []float64
	if st.pr == prK {
		build = mpi.GetBuf(kw*nt + kw)
		for t := 0; t < kw; t++ {
			li, _ := st.localRow(k0 + t)
			copy(build[t*nt:(t+1)*nt], st.a.Row(li)[ci:])
			build[kw*nt+t] = st.b[li]
		}
	}
	flat, err := st.p.Bcast(st.colComm, prK, build)
	if err != nil {
		return nil, nil, err
	}
	if build != nil {
		mpi.PutBuf(build)
	}
	if len(flat) != kw*nt+kw {
		return nil, nil, fmt.Errorf("scalapack: U row payload %d, want %d", len(flat), kw*nt+kw)
	}
	return flat[:kw*nt], flat[kw*nt:], nil
}

// trailingUpdate applies A22 -= L21·U12 on the owned trailing block and
// b -= L21·bp on the owned trailing rows. myRows/myCols are ascending, so
// the trailing rows and columns are suffixes of the local layout and the
// whole update is one strided GEMM on the blocked kernel (kw ≤ nb ≤ the
// kernel's k panel, so the accumulation per element even stays in
// ascending k order, like the scalar loops it replaces). The flop charge
// below is the same closed form the scalar version accumulated, keeping
// virtual time and energy bit-for-bit unchanged.
func (st *pdState) trailingUpdate(k0, k1 int, lpanel, u12, bp []float64) {
	kw := k1 - k0
	ri := suffixFrom(st.myRows, k1)
	ci := suffixFrom(st.myCols, k1)
	mrows := len(st.myRows) - ri
	ncols := len(st.myCols) - ci
	if mrows == 0 {
		return
	}
	if ncols > 0 {
		ad, lda := st.a.Raw()
		kernel.Gemm(mrows, ncols, kw, -1, lpanel[ri*kw:], kw, u12, ncols, ad[ri*lda+ci:], lda)
	}
	flops := float64(mrows) * float64(2*kw*ncols)
	for li := ri; li < len(st.myRows); li++ {
		st.b[li] -= kernel.DotSerial(lpanel[li*kw:(li+1)*kw], bp)
	}
	flops += float64(mrows) * float64(2*kw)
	st.chargeFlops(flops)
}

// backSubstitute solves U·x = y block row by block row from the bottom,
// broadcasting each solved segment to the whole grid. y is the
// transformed right-hand side the panel steps left in b.
func (st *pdState) backSubstitute() ([]float64, error) {
	n, nb := st.n, st.nb
	x := make([]float64, n)
	nBlocks := (n + nb - 1) / nb
	for bi := nBlocks - 1; bi >= 0; bi-- {
		r0 := bi * nb
		r1 := r0 + nb
		if r1 > n {
			r1 = n
		}
		kw := r1 - r0
		prI := bi % st.grid.Pr
		pcI := bi % st.grid.Pc
		solver := st.grid.Rank(prI, pcI)

		var seg []float64 // the solver rank's payload: status + solution
		if st.pr == prI {
			// Partial sums over my trailing columns.
			s := mpi.GetBuf(kw)
			clear(s)
			var flops float64
			for t := 0; t < kw; t++ {
				li, _ := st.localRow(r0 + t)
				row := st.a.Row(li)
				for lj, gj := range st.myCols {
					if gj >= r1 {
						s[t] += row[lj] * x[gj]
					}
				}
			}
			flops = float64(2 * kw * len(st.myCols))
			st.chargeFlops(flops)
			total, err := st.p.AllreduceSum(st.rowComm, s)
			mpi.PutBuf(s)
			if err != nil {
				return nil, err
			}
			if st.pc == pcI {
				// Solve the diagonal block backwards.
				seg = mpi.GetBuf(kw + 1)
				clear(seg)
				for t := kw - 1; t >= 0; t-- {
					li, _ := st.localRow(r0 + t)
					row := st.a.Row(li)
					v := st.b[li] - total[t]
					for u := kw - 1; u > t; u-- {
						lu, _ := st.localCol(r0 + u)
						v -= row[lu] * seg[u+1]
					}
					ld, ok := st.localCol(r0 + t)
					if !ok {
						return nil, fmt.Errorf("scalapack: diagonal col %d not local", r0+t)
					}
					d := row[ld]
					if d == 0 {
						seg[0] = 1
						break
					}
					seg[t+1] = v / d
				}
				st.chargeFlops(float64(kw * kw))
			}
			st.p.Recycle(total)
		}
		got, err := st.p.Bcast(st.c, solver, seg)
		mpi.PutBuf(seg)
		if err != nil {
			return nil, err
		}
		if len(got) != kw+1 {
			return nil, fmt.Errorf("scalapack: solution payload %d, want %d", len(got), kw+1)
		}
		singular := got[0] != 0
		copy(x[r0:r1], got[1:])
		st.p.Recycle(got)
		if singular {
			return nil, fmt.Errorf("%w: zero U diagonal in block %d", ErrSingular, bi)
		}
	}
	return x, nil
}
