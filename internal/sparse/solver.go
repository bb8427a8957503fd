package sparse

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// Distributed CG / BiCGSTAB over the simulated-MPI substrate.
//
// Distribution is a contiguous row-block partition (BlockRange). Every
// rank generates its own rows from the Spec, so there is no input
// distribution step. The halo plan is negotiated once: a rank derives
// which external vector entries its rows touch, and — because the
// generated sparsity pattern is symmetric — the set of peers that need
// entries *from* it is exactly the set it needs entries from, so the
// plan is one index-list exchange with no discovery round. Per
// iteration the exchange is all-sends-then-all-recvs, one message per
// (src,dst) pair, which the mailbox's buffered streams absorb without
// deadlock; a crashed peer surfaces as mpi.ErrRankFailed from the
// Send/Recv itself.
//
// Phases (spmv, halo, dot, axpy) are recorded on the tracer; with
// ChargeCosts the kernels charge virtual time and DRAM traffic at the
// memory-bound rates in perf.go through the same RAPL accounting the
// dense solvers use.

// BlockRange returns the half-open row range [lo,hi) owned by rank r of
// ranks under contiguous block distribution with remainder rows on the
// leading ranks (same convention as the dense solvers).
func BlockRange(n, ranks, r int) (lo, hi int) {
	if ranks <= 0 || r < 0 || r >= ranks {
		return 0, 0
	}
	base := n / ranks
	rem := n % ranks
	if r < rem {
		lo = r * (base + 1)
		return lo, lo + base + 1
	}
	lo = rem*(base+1) + (r-rem)*base
	return lo, lo + base
}

// OwnerOf returns the rank owning row (0-based) under BlockRange.
func OwnerOf(n, ranks, row int) int {
	if ranks <= 0 || row < 0 || row >= n {
		return -1
	}
	base := n / ranks
	rem := n % ranks
	cut := rem * (base + 1)
	if row < cut {
		return row / (base + 1)
	}
	return rem + (row-cut)/base
}

// Options configures a distributed solve.
type Options struct {
	// Tol is the relative-residual convergence target (SolverTol if 0).
	Tol float64
	// MaxIter bounds the iteration count (4·n if 0).
	MaxIter int
	// ChargeCosts enables virtual-time/energy accounting of the kernels
	// at the perf.go rates (communication is always charged by the
	// substrate).
	ChargeCosts bool
}

// Solution is the outcome of a converged distributed solve.
type Solution struct {
	// X is the full solution vector, identical on every rank.
	X []float64
	// Iters is the iteration count to convergence.
	Iters int
	// Residual is the final relative residual from the recurrence.
	Residual float64
}

// Tags of the solver's point-to-point traffic (collectives use the
// substrate's reserved negative tags).
const (
	tagHaloIdx = 7001 // one-time halo plan: index lists
	tagHalo    = 7002 // per-iteration halo values
)

// Solve runs the selected iterative solver on the world communicator.
func Solve(p *mpi.Proc, alg Algorithm, spec Spec, opt Options) (Solution, error) {
	if err := spec.Validate(); err != nil {
		return Solution{}, err
	}
	if p.Size() > spec.N {
		return Solution{}, fmt.Errorf("sparse: %d ranks exceed order %d", p.Size(), spec.N)
	}
	if opt.Tol <= 0 {
		opt.Tol = SolverTol
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 4 * spec.N
	}
	d, err := newDist(p, spec, opt.ChargeCosts)
	if err != nil {
		return Solution{}, err
	}
	if opt.ChargeCosts {
		p.SetActivity(CoreActivity)
		defer p.SetActivity(1)
	}
	switch alg {
	case CG:
		return d.cg(opt)
	case BiCGSTAB:
		return d.bicgstab(opt)
	default:
		return Solution{}, fmt.Errorf("sparse: unknown algorithm %v", alg)
	}
}

// haloPeer is one neighbour of the halo plan.
type haloPeer struct {
	rank int
	// sendOff are local row offsets whose values the peer needs.
	sendOff []int32
	// The peer's message fills xext[recvLo:recvHi], in its send order.
	recvLo, recvHi int
	sendBuf        []float64
}

// dist is the per-rank state of a distributed solve.
type dist struct {
	p      *mpi.Proc
	c      *mpi.Comm
	spec   Spec
	lo, hi int
	rows   int
	// a holds this rank's rows with columns remapped to the extended
	// local vector.
	a     *runMatrix
	peers []haloPeer
	// xext is the extended SpMV input: every column the rows touch, in
	// ascending global order, so a run of global columns stays a run. The
	// owned block sits at [own, own+rows) between the external entries
	// below it and those above it.
	xext   []float64
	own    int
	charge bool
	// dotBuf is this rank's side of a fused dot-product allreduce.
	dotBuf [3]float64
}

// newDist generates the rank's row block, remaps it to extended-vector
// indexing and negotiates the halo plan.
func newDist(p *mpi.Proc, spec Spec, charge bool) (*dist, error) {
	size, rank := p.Size(), p.Rank()
	lo, hi := BlockRange(spec.N, size, rank)
	a, err := spec.rowRuns(lo, hi)
	if err != nil {
		return nil, err
	}
	d := &dist{p: p, c: p.World(), spec: spec, lo: lo, hi: hi, rows: hi - lo, a: a, charge: charge}

	// pos[j-cmin] is the number of touched columns below global column
	// j, which for a touched column is its extended-vector position:
	// mark what the runs touch, then take the running count.
	cmin, cmax := lo, hi
	for _, r := range a.runs {
		cmin, cmax = min(cmin, int(r.start)), max(cmax, int(r.start+r.n))
	}
	pos := make([]int32, cmax-cmin+1)
	for _, r := range a.runs {
		for j := r.start; j < r.start+r.n; j++ {
			pos[int(j)-cmin] = 1
		}
	}
	count := int32(0)
	for k, touched := range pos {
		pos[k] = count
		count += touched
	}
	for k := range a.runs {
		a.runs[k].start = pos[int(a.runs[k].start)-cmin]
	}
	a.cols = int(count)
	d.xext = make([]float64, a.cols)
	d.own = int(pos[lo-cmin])

	// One-time plan exchange: tell each peer which of its rows we need
	// (as float64-encoded indices), receive the symmetric request.
	// Ownership is contiguous, so walking the external columns in order
	// meets the peers in rank order and each one's entries as one stretch
	// of xext. The symmetric pattern makes peer sets symmetric, so the
	// same walk fixes who we send to.
	for j := cmin; j < cmax; {
		if j == lo {
			j = hi
			continue
		}
		o := OwnerOf(spec.N, size, j)
		_, end := BlockRange(spec.N, size, o)
		end = min(end, cmax)
		from, to := pos[j-cmin], pos[end-cmin]
		if to > from {
			need := make([]float64, 0, to-from)
			for ; j < end; j++ {
				if pos[j+1-cmin] > pos[j-cmin] {
					need = append(need, float64(j))
				}
			}
			if err := p.SendNoCopy(d.c, o, tagHaloIdx, need); err != nil {
				return nil, err
			}
			d.peers = append(d.peers, haloPeer{rank: o, recvLo: int(from), recvHi: int(to)})
		}
		j = end
	}
	for i := range d.peers {
		hp := &d.peers[i]
		req, err := p.Recv(d.c, hp.rank, tagHaloIdx)
		if err != nil {
			return nil, err
		}
		hp.sendOff = make([]int32, len(req))
		hp.sendBuf = make([]float64, len(req))
		for k, f := range req {
			j := int(f)
			if j < lo || j >= hi {
				return nil, fmt.Errorf("sparse: rank %d asked rank %d for row %d outside [%d,%d)", hp.rank, rank, j, lo, hi)
			}
			hp.sendOff[k] = int32(j - lo)
		}
		p.Recycle(req)
	}
	return d, nil
}

// exchange refreshes the halo of the extended vector from the owned
// values v (length rows): buffered sends to every peer, then receives —
// one message per pair, so the streams never fill and a crash in either
// direction surfaces as a typed error instead of a deadlock.
func (d *dist) exchange(iter int, v []float64) error {
	copy(d.xext[d.own:d.own+d.rows], v)
	if len(d.peers) == 0 {
		return nil
	}
	ph := d.p.BeginPhase("halo", iter)
	defer d.p.EndPhase(ph)
	for i := range d.peers {
		hp := &d.peers[i]
		for k, off := range hp.sendOff {
			hp.sendBuf[k] = v[off]
		}
		if err := d.p.Send(d.c, hp.rank, tagHalo, hp.sendBuf); err != nil {
			return err
		}
	}
	for i := range d.peers {
		hp := &d.peers[i]
		in, err := d.p.Recv(d.c, hp.rank, tagHalo)
		if err != nil {
			return err
		}
		if len(in) != hp.recvHi-hp.recvLo {
			return fmt.Errorf("sparse: halo from rank %d carried %d values, want %d", hp.rank, len(in), hp.recvHi-hp.recvLo)
		}
		copy(d.xext[hp.recvLo:hp.recvHi], in)
		d.p.Recycle(in)
	}
	return nil
}

// spmv computes dst = A·xext (call exchange first) and charges the
// memory-bound kernel.
func (d *dist) spmv(iter int, dst []float64) {
	ph := d.p.BeginPhase("spmv", iter)
	d.a.mulVecInto(dst, d.xext)
	d.chargeBytes(float64(len(d.a.val)) * DramBytesPerNNZ)
	d.p.EndPhase(ph)
}

// dotPairs holds the operands of up to three dot products; the unused
// trailing pairs stay nil.
type dotPairs [3][2][]float64

// dots computes the global dot products of the block-distributed vector
// pairs in one fused allreduce of as many values as there are pairs.
func (d *dist) dots(iter int, pairs dotPairs) (out [3]float64, err error) {
	ph := d.p.BeginPhase("dot", iter)
	defer d.p.EndPhase(ph)
	n := 0
	for ; n < len(pairs) && pairs[n][0] != nil; n++ {
		d.dotBuf[n] = mat.Dot(pairs[n][0], pairs[n][1])
	}
	d.chargeBytes(16 * float64(d.rows) * float64(n))
	sum, err := d.p.AllreduceSum(d.c, d.dotBuf[:n])
	if err != nil {
		return out, err
	}
	copy(out[:], sum)
	d.p.Recycle(sum)
	return out, nil
}

// endAxpy closes an "axpy" span around a batch of local vector updates
// and charges their streamed traffic (bytes per row).
func (d *dist) endAxpy(ph mpi.Phase, bytesPerRow float64) {
	d.chargeBytes(bytesPerRow * float64(d.rows))
	d.p.EndPhase(ph)
}

// chargeBytes charges a memory-bound kernel touching the given traffic.
func (d *dist) chargeBytes(bytes float64) {
	if d.charge {
		d.p.Compute(bytes/HostStreamBps, bytes)
	}
}

// finish allgathers the owned blocks into the full solution. Allgather
// contributions must be equal length, so blocks are padded to the
// largest block and trimmed back per the partition on reassembly.
func (d *dist) finish(x []float64, iters int, rr, bb float64) (Solution, error) {
	size := d.p.Size()
	maxBlock := (d.spec.N + size - 1) / size
	padded := make([]float64, maxBlock)
	copy(padded, x)
	chunks, err := d.p.Allgather(d.c, padded)
	if err != nil {
		return Solution{}, err
	}
	full := make([]float64, 0, d.spec.N)
	for r, ch := range chunks {
		lo, hi := BlockRange(d.spec.N, size, r)
		full = append(full, ch[:hi-lo]...)
	}
	res := 0.0
	if bb > 0 {
		res = math.Sqrt(rr / bb)
	}
	return Solution{X: full, Iters: iters, Residual: res}, nil
}

// cg is the conjugate gradient iteration.
func (d *dist) cg(opt Options) (Solution, error) {
	x := make([]float64, d.rows)
	r := d.spec.RHSRange(d.lo, d.hi)
	pv := mat.VecClone(r)
	q := make([]float64, d.rows)

	rr0, err := d.dots(0, dotPairs{{r, r}})
	if err != nil {
		return Solution{}, err
	}
	rr, bb := rr0[0], rr0[0]
	tol2 := opt.Tol * opt.Tol * bb
	iters := 0
	for it := 1; it <= opt.MaxIter && rr > tol2; it++ {
		if err := d.exchange(it, pv); err != nil {
			return Solution{}, err
		}
		d.spmv(it, q)
		pq, err := d.dots(it, dotPairs{{pv, q}})
		if err != nil {
			return Solution{}, err
		}
		if pq[0] <= 0 {
			return Solution{}, fmt.Errorf("sparse: CG breakdown at iteration %d (p·Ap = %g)", it, pq[0])
		}
		alpha := rr / pq[0]
		ph := d.p.BeginPhase("axpy", it)
		mat.Axpy(alpha, pv, x)
		mat.Axpy(-alpha, q, r)
		d.endAxpy(ph, 48)
		rrNew, err := d.dots(it, dotPairs{{r, r}})
		if err != nil {
			return Solution{}, err
		}
		beta := rrNew[0] / rr
		rr = rrNew[0]
		ph = d.p.BeginPhase("axpy", it)
		for i := range pv {
			pv[i] = r[i] + beta*pv[i]
		}
		d.endAxpy(ph, 24)
		iters = it
	}
	if rr > tol2 {
		return Solution{}, fmt.Errorf("sparse: CG did not converge within %d iterations (rel residual %.3e)", opt.MaxIter, math.Sqrt(rr/bb))
	}
	return d.finish(x, iters, rr, bb)
}

// bicgstab is the stabilised bi-conjugate gradient iteration. The final
// residual norm uses the exact update algebra ‖s−ωt‖² = s·s − 2ω·t·s +
// ω²·t·t, folding what would be a fourth allreduce into the fused dots.
func (d *dist) bicgstab(opt Options) (Solution, error) {
	x := make([]float64, d.rows)
	r := d.spec.RHSRange(d.lo, d.hi)
	rhat := mat.VecClone(r)
	pv := make([]float64, d.rows)
	v := make([]float64, d.rows)
	s := make([]float64, d.rows)
	t := make([]float64, d.rows)

	rr0, err := d.dots(0, dotPairs{{r, r}})
	if err != nil {
		return Solution{}, err
	}
	rr, bb := rr0[0], rr0[0]
	tol2 := opt.Tol * opt.Tol * bb
	rho, alpha, omega := 1.0, 1.0, 1.0
	iters := 0
	for it := 1; it <= opt.MaxIter && rr > tol2; it++ {
		rhoNew, err := d.dots(it, dotPairs{{rhat, r}})
		if err != nil {
			return Solution{}, err
		}
		if rhoNew[0] == 0 {
			return Solution{}, fmt.Errorf("sparse: BiCGSTAB breakdown at iteration %d (ρ = 0)", it)
		}
		if it == 1 {
			copy(pv, r)
		} else {
			beta := (rhoNew[0] / rho) * (alpha / omega)
			ph := d.p.BeginPhase("axpy", it)
			for i := range pv {
				pv[i] = r[i] + beta*(pv[i]-omega*v[i])
			}
			d.endAxpy(ph, 32)
		}
		rho = rhoNew[0]
		if err := d.exchange(it, pv); err != nil {
			return Solution{}, err
		}
		d.spmv(it, v)
		rv, err := d.dots(it, dotPairs{{rhat, v}})
		if err != nil {
			return Solution{}, err
		}
		if rv[0] == 0 {
			return Solution{}, fmt.Errorf("sparse: BiCGSTAB breakdown at iteration %d (r̂·v = 0)", it)
		}
		alpha = rho / rv[0]
		ph := d.p.BeginPhase("axpy", it)
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		d.endAxpy(ph, 24)
		if err := d.exchange(it, s); err != nil {
			return Solution{}, err
		}
		d.spmv(it, t)
		fused, err := d.dots(it, dotPairs{{t, s}, {t, t}, {s, s}})
		if err != nil {
			return Solution{}, err
		}
		ts, tt, ss := fused[0], fused[1], fused[2]
		if tt == 0 {
			// s is already (numerically) zero: accept the half step.
			ph := d.p.BeginPhase("axpy", it)
			mat.Axpy(alpha, pv, x)
			d.endAxpy(ph, 24)
			rr = ss
			iters = it
			break
		}
		omega = ts / tt
		ph = d.p.BeginPhase("axpy", it)
		for i := range x {
			x[i] += alpha*pv[i] + omega*s[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		d.endAxpy(ph, 56)
		rr = ss - 2*omega*ts + omega*omega*tt
		if rr < 0 {
			rr = 0 // cancellation guard: the true norm is non-negative
		}
		iters = it
	}
	if rr > tol2 {
		return Solution{}, fmt.Errorf("sparse: BiCGSTAB did not converge within %d iterations (rel residual %.3e)", opt.MaxIter, math.Sqrt(rr/bb))
	}
	return d.finish(x, iters, rr, bb)
}
