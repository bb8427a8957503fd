package sparse

import "math"

// Performance-accounting constants for the iterative solvers. Like the
// dense solvers' perf constants (ime/perf.go, scalapack), these drive
// both the executable solver's virtual-time charges and the analytic
// model — the two must agree, which is why they live here.
//
// The kernels are memory-bound, so everything is expressed in streamed
// bytes over an effective per-core bandwidth rather than in flops over an
// arithmetic rate.

const (
	// HostStreamBps is the effective per-core streaming bandwidth of a
	// Xeon 8160 core in an occupied socket: ~128 GB/s of socket DRAM
	// bandwidth shared by 24 cores, slightly above the fair share because
	// SpMV's index-driven loads prefetch well on banded structure.
	HostStreamBps = 5.5e9
	// DramBytesPerNNZ is the traffic one CSR entry costs in SpMV: 8 B
	// value + 4 B column index, with the vector reads mostly cached.
	DramBytesPerNNZ = 12.0
	// CoreActivity scales per-core dynamic power while in sparse kernels.
	// Memory-bound code keeps the FP pipes half-idle waiting on DRAM, so
	// it sits below nominal — the opposite end of the scale from IMe's
	// 1.12 (dense streaming updates saturate the load/store pipes).
	CoreActivity = 0.85
	// SolverTol is the default relative-residual convergence target of
	// the executable solvers and the iteration-count model.
	SolverTol = 1e-10
)

// Per-iteration shape of each solver: SpMV applications, scalar
// allreduces (dot products), and the streamed vector traffic in bytes
// per matrix row (axpy-family updates plus the local dot reads).
type iterShape struct {
	spmvs      int
	dots       int
	vecBytes   float64 // per row per iteration
	itersCoeff float64 // iteration-count coefficient on √κ·ln(2/tol)
}

// shapeOf returns the per-iteration accounting shape of a solver.
func shapeOf(alg Algorithm) iterShape {
	switch alg {
	case BiCGSTAB:
		// 2 SpMVs, 3 allreduces (ρ, r̂·v, fused t/s dots), and the p, s,
		// x, r updates plus dot reads ≈ 168 B/row. The 0.35 coefficient
		// reflects its smoother two-sweep convergence on these systems.
		return iterShape{spmvs: 2, dots: 3, vecBytes: 168, itersCoeff: 0.35}
	default:
		// CG: 1 SpMV, 2 allreduces (p·q, r·r), three axpys and the dot
		// reads ≈ 96 B/row. ½√κ·ln(2/ε) is the classical CG bound.
		return iterShape{spmvs: 1, dots: 2, vecBytes: 96, itersCoeff: 0.5}
	}
}

// EstIters is the analytic model's iteration count for a system with
// condition bound cond: coeff·√κ·ln(2/tol), clamped to [1, n] (CG is
// exact in n steps).
func EstIters(alg Algorithm, cond float64, n int) int {
	sh := shapeOf(alg)
	it := int(math.Ceil(sh.itersCoeff * math.Sqrt(cond) * math.Log(2/SolverTol)))
	if it < 1 {
		it = 1
	}
	if it > n {
		it = n
	}
	return it
}

// WorkFlops returns the arithmetic work of iters solver iterations —
// the numerator of the Green500-style efficiency metric: 2 flops per
// stored entry per SpMV plus one flop per streamed vector double.
func WorkFlops(alg Algorithm, spec Spec, iters int) float64 {
	sh := shapeOf(alg)
	perIter := float64(float64(sh.spmvs)*2*spec.EstNNZ()) + float64(sh.vecBytes/8*float64(spec.N))
	return float64(iters) * perIter
}
