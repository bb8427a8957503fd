package perfmodel

import (
	"repro/internal/mpi"
	"repro/internal/scalapack"
)

// scalapackTime replays the pdgesv schedule analytically, mirroring
// scalapack.Pdgesv panel by panel. The data-dependent pivoting chain —
// per-column MAXLOC allreduce, row swap, pivot-row broadcast — is always
// exposed; with Overlap the panel/update broadcasts and out-of-panel swaps
// hide behind the trailing GEMM (pdgetrf lookahead).
func scalapackTime(n, ranks int, prm Params, intra bool, capStretch float64) (timeBreakdown, error) {
	grid, err := scalapack.NewGrid(ranks)
	if err != nil {
		return timeBreakdown{}, err
	}
	cost := prm.Cost
	nb := prm.BlockSize
	if nb > n {
		nb = n
	}
	pr, pc := float64(grid.Pr), float64(grid.Pc)
	rate := scalapack.EffFlopsPerCore
	crossRow := 0.0 // fraction of pivots landing on another process row
	if grid.Pr > 1 {
		crossRow = (pr - 1) / pr
	}
	col := resolveCollective(cost, grid.Pr, intra, prm.Overlap) // down a process column
	row := resolveCollective(cost, grid.Pc, intra, prm.Overlap) // along a process row
	world := resolveCollective(cost, ranks, intra, prm.Overlap)
	// swapOne is the critical-path cost of one paired row exchange: both
	// directions fly concurrently, so a partner pays its send overhead,
	// one wire time and one receive overhead (plus the peer's send).
	swapOne := func(bytes float64) float64 {
		return 2*cost.SendOverhead + (col.lat + bytes/col.bw) + cost.RecvOverhead
	}
	// pivotChain is the communication of one panel's pivoting chain. It
	// restarts at zero every panel and its terms depend on the columns
	// left in the panel only, so a cell has at most two values of it: the
	// full panel's and the remainder panel's.
	maxloc := col.allreduce(2 * mpi.Float64Bytes) // MAXLOC over the process column
	pivotChain := func(kw int) float64 {
		var comm float64
		for w := kw; w >= 1; w-- {
			comm += maxloc
			// Row swap inside the panel (cross-row with probability
			// (Pr−1)/Pr), then the pivot-row segment broadcast.
			comm += crossRow * swapOne(float64(w)*mpi.Float64Bytes)
			comm += col.storeForward(float64(w) * mpi.Float64Bytes)
		}
		return comm
	}
	fullChain := pivotChain(nb)

	var t timeBreakdown
	for k0 := 0; k0 < n; k0 += nb {
		kw, chain := nb, fullChain
		if k0+kw > n {
			kw = n - k0
			chain = pivotChain(kw)
		}
		k1 := k0 + kw
		rowsBelowPanel := float64(n-k0)/pr + 1 // local rows ≥ k0 (worst rank)
		colsTrail := float64(n-k1)/pc + 1      // local trailing columns

		// --- panel factorisation: the unhideable pivoting chain; its
		// communication is chain, its compute depends on the column ---
		var panelComp float64
		for j := k0; j < k1; j++ {
			rowsBelow := float64(n-j)/pr + 1
			// pivot scan (1 flop per scanned row) + elimination.
			panelComp += rowsBelow / rate
			panelComp += float64(2*(k1-j-1)+1) * rowsBelow / rate
		}
		t.compute += panelComp * capStretch
		t.exposedComm += chain

		// --- pivot list broadcast row-wise ---
		t.exposedComm += row.bcast(float64(kw+1) * mpi.Float64Bytes)

		// --- hideable phase: swaps outside the panel, L/U broadcasts ---
		swapBytes := (float64(n-kw)/pc + 1) * mpi.Float64Bytes
		hideable := float64(kw) * crossRow * (swapOne(swapBytes) + swapOne(mpi.Float64Bytes))
		hideable += row.bcast(rowsBelowPanel * float64(kw) * mpi.Float64Bytes)
		hideable += col.bcast((float64(kw)*colsTrail + float64(kw)) * mpi.Float64Bytes)

		// --- compute: U row triangular solve + trailing GEMM ---
		uComp := (float64(kw*kw)*colsTrail + float64(kw*kw)) / rate
		rowsTrail := float64(n-k1)/pr + 1
		gemm := (2*float64(kw)*rowsTrail*colsTrail + 2*float64(kw)*rowsTrail) / rate
		comp := (uComp + gemm) * capStretch
		t.compute += comp
		if prm.Overlap {
			if hideable > comp {
				t.exposedComm += hideable - comp
			}
		} else {
			t.exposedComm += hideable
		}
	}

	// --- distributed blocked back substitution ---
	nBlocks := (n + nb - 1) / nb
	for bi := nBlocks - 1; bi >= 0; bi-- {
		kw := nb
		if bi == nBlocks-1 && n%nb != 0 {
			kw = n % nb
		}
		colsLocal := float64(n)/pc + 1
		t.compute += (2*float64(kw)*colsLocal + float64(kw*kw)) / rate * capStretch
		t.exposedComm += row.allreduce(float64(kw) * mpi.Float64Bytes)
		t.exposedComm += world.bcast(float64(kw+1) * mpi.Float64Bytes)
	}
	return t, nil
}
