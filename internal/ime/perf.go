package ime

// Performance-accounting constants and closed forms for IMe. These drive
// the virtual-time charges of the executable parallel solver and the
// analytic engine (internal/perfmodel); both must use the same numbers,
// which is why they live here.

const (
	// EffFlopsPerCore is the effective arithmetic rate of one Xeon 8160
	// core running IMe's fundamental-formula update. The update is a long
	// contiguous stream (one multiplier per row, AXPY-like inner loop) that
	// vectorises well but has no blocking/reuse, so it runs below DGEMM
	// rates. Chosen with scalapack.EffFlopsPerCore so the dense-deployment
	// IMe/ScaLAPACK duration ratio lands near the paper's ≈2×.
	EffFlopsPerCore = 9e9
	// DramBytesPerFlop is the DRAM traffic IMe generates per flop. The
	// table is streamed every level with little reuse; 0.18 B/flop ≈
	// 39 GB/s per fully loaded socket, near the stream limit of six
	// DDR4-2666 channels shared by 24 cores. This constant produces the
	// paper's large IMe-vs-ScaLAPACK DRAM power gap (≈40% at 144 ranks).
	DramBytesPerFlop = 0.18
	// CoreActivity scales the per-core dynamic power while computing.
	// The paper measures IMe drawing 12–18% more average power than
	// ScaLAPACK (Figs. 6–7); the saturated load/store pipelines of the
	// streaming update justify an above-nominal activity factor.
	CoreActivity = 1.12
)

// LevelFlops returns the flops the paper's IMe implementation spends on
// level l of an order-n system, 3·l·n, whose sum over levels is the
// published arithmetic complexity 3/2·n³ + O(n²) (§2). The executable
// solver charges this (its own reconstruction performs ~n³; see the
// package comment) so virtual time reflects the published algorithm.
func LevelFlops(n, l int) float64 { return 3 * float64(l) * float64(n) }

// TotalFlops is Σ_l LevelFlops = 3/2·n²·(n+1).
func TotalFlops(n int) float64 {
	nf := float64(n)
	return 1.5 * nf * nf * (nf + 1)
}

// BlockRange returns the half-open row range [lo,hi) owned by rank r of
// ranks under contiguous block distribution with remainder rows spread
// over the leading ranks.
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

// PaperMessageCount is the paper's closed form for the total number of
// messages IMeP exchanges: M = n² + 2(N−1)·n + 2(N−1). The n² term counts
// the last-row entries element-wise; our implementation aggregates each
// rank's entries into one message per level (see ExpectedMessages), so the
// paper's count is matched by message volume rather than message count for
// that term. Both are reported by the message-accounting experiment.
func PaperMessageCount(n, ranks int) float64 {
	nf, nr := float64(n), float64(ranks)
	return nf*nf + 2*(nr-1)*nf + 2*(nr-1)
}

// PaperMessageVolume is the paper's closed form for the float64 volume:
// V = (N+2)·n² + 2(N−1)·n.
func PaperMessageVolume(n, ranks int) float64 {
	nf, nr := float64(n), float64(ranks)
	return (nr+2)*nf*nf + 2*(nr-1)*nf
}

// ExpectedMessages is the exact message count of this implementation of
// SolveParallel, validated against the runtime's traffic counters:
//
//	init:      2(N−1)            h and initial-column broadcasts
//	per level: 2(N−1)            h broadcast + pivot-row broadcast
//	           (N−1)             aggregated last-row chunks to the master
//	final:     (N−1)             solution broadcast
func ExpectedMessages(n, ranks int) int64 {
	if ranks <= 1 {
		return 0
	}
	perLevel := int64(3 * (ranks - 1))
	return int64(2*(ranks-1)) + int64(n)*perLevel + int64(ranks-1)
}

// ExpectedVolume is the exact float64 volume of this implementation:
// each h broadcast carries n elements to N−1 receivers, the level-l pivot
// broadcast carries l+1 (row segment plus the pre-normalisation pivot),
// the last-row chunks carry n−owned(master) elements total per level, and
// the init/final broadcasts carry n each.
func ExpectedVolume(n, ranks int) int64 {
	if ranks <= 1 {
		return 0
	}
	nm1 := int64(ranks - 1)
	lo, hi := BlockRange(n, ranks, 0)
	masterRows := int64(hi - lo)
	var vol int64
	vol += 2 * nm1 * int64(n) // init: h + initial column
	for l := 1; l <= n; l++ {
		vol += nm1 * int64(n)        // h broadcast
		vol += nm1 * int64(l+1)      // pivot row + pivot value
		vol += int64(n) - masterRows // last-row chunks (slaves only)
	}
	vol += nm1 * int64(n) // final solution broadcast
	return vol
}
