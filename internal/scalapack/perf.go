package scalapack

// Performance-accounting constants and closed forms for the ScaLAPACK
// Gaussian elimination, mirrored by the analytic engine.

const (
	// EffFlopsPerCore is the effective rate of one Xeon 8160 core inside
	// pdgetrf's blocked kernels. The trailing update is a local DGEMM with
	// strong reuse, so it runs above IMe's streaming rate, but pivoting,
	// swaps and panel work drag the average below DGEMM peak. Together
	// with ime.EffFlopsPerCore this sets the paper's ≈2× dense-deployment
	// duration ratio.
	EffFlopsPerCore = 8.5e9
	// DramBytesPerFlop is the DRAM traffic per flop: blocking keeps the
	// working set in cache, ≈0.12 B/flop ≈ 23 GB/s per loaded socket.
	DramBytesPerFlop = 0.12
	// CoreActivity scales dynamic core power; blocked kernels stall less
	// on memory and retire from cache, drawing slightly under-nominal
	// switching power in our calibration (IMe is the above-nominal one).
	CoreActivity = 0.97
)

// TotalFlops is the arithmetic complexity of LU with partial pivoting,
// 2/3·n³ + O(n²) (§2: "the most efficient algorithm for solving systems
// of linear equations"), plus the 2n² triangular solves.
func TotalFlops(n int) float64 {
	nf := float64(n)
	return float64(2.0/3.0*nf*nf*nf) + float64(2*nf*nf)
}
