package ime

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// Checksum-based fault tolerance — the IMe property the paper cites as its
// motivation ([7]: "IMe has a good integrated low-cost multiple fault
// tolerance, which is more efficient than the checkpoint/restart technique
// usually applied in Gaussian Elimination").
//
// The mechanism exploits the linearity of the fundamental formula. Group
// the distributed rows by their local index g within each rank's block and
// maintain, for each checksum set j, a weighted sum
//
//	cs_{j,g} = Σ_r w_r^j · G[lo_r + g],   w_r = r + 1
//
// Every data row updates as row ← row − row[l−1]·pr, so the weighted sum
// updates as cs ← cs − cs[l−1]·pr — each checksum row obeys the same
// formula with its own multiplier, at O(n) extra work per level per set.
// The one exception each level is the group containing the pivot row,
// which is normalised instead of eliminated; its checksums are corrected
// using the broadcast payload (pr, piv), which reconstructs the pivot
// row's old value as piv·pr.
//
// With k checksum sets, up to k ranks lost *simultaneously* are recovered:
// for each row group, the survivors' weighted sums are subtracted from the
// checksums, leaving a k×k Vandermonde system in the lost rows, solved
// exactly. No checkpoint I/O, no restart.

// checksumState is the replicated checksum-row structure one rank
// maintains: sets × groups rows of length n.
type checksumState struct {
	n, ranks int
	sets     int
	// rows[j][g] is checksum set j of group g.
	rows [][][]float64
}

// weight returns w_r^j for rank r and set j.
func weight(r, j int) float64 {
	w := 1.0
	for t := 0; t < j; t++ {
		w *= float64(r + 1)
	}
	return w
}

// newChecksums builds the checksum rows from the (globally known) system.
func newChecksums(sys *mat.System, st *parallelState, sets int) *checksumState {
	n, ranks := st.n, st.ranks
	k := maxBlock(n, ranks)
	cs := &checksumState{n: n, ranks: ranks, sets: sets, rows: make([][][]float64, sets)}
	for j := 0; j < sets; j++ {
		cs.rows[j] = make([][]float64, k)
		for g := 0; g < k; g++ {
			row := make([]float64, n)
			for r := 0; r < ranks; r++ {
				lo, hi := BlockRange(n, ranks, r)
				if lo+g >= hi {
					continue
				}
				i := lo + g
				inv := 1 / sys.A.At(i, i)
				w := weight(r, j)
				src := sys.A.Row(i)
				for col, v := range src {
					row[col] += w * v * inv
				}
			}
			cs.rows[j][g] = row
		}
	}
	return cs
}

// maxBlock returns the largest block size of the distribution.
func maxBlock(n, ranks int) int {
	lo, hi := BlockRange(n, ranks, 0)
	return hi - lo
}

// step advances every checksum row across level l using the broadcast
// pivot payload.
func (cs *checksumState) step(l int, pr []float64, piv float64) {
	pivotRow := l - 1
	owner := OwnerOf(cs.n, cs.ranks, pivotRow)
	lo, _ := BlockRange(cs.n, cs.ranks, owner)
	pivotGroup := pivotRow - lo
	for j := 0; j < cs.sets; j++ {
		w := weight(owner, j)
		for g, row := range cs.rows[j] {
			if g == pivotGroup {
				// cs ← cs − w·old − (cs[l−1] − w·piv)·pr + w·pr, old = piv·pr.
				m := row[l-1] - w*piv
				for t := 0; t < l; t++ {
					row[t] += -w*piv*pr[t] - m*pr[t] + w*pr[t]
				}
				continue
			}
			m := row[l-1]
			if m == 0 {
				continue
			}
			for t := 0; t < l; t++ {
				row[t] -= m * pr[t]
			}
		}
	}
}

// injectAndRecover simulates simultaneous hard faults of faultRanks (their
// table blocks are wiped) followed by checksum recovery: one allreduce per
// (row group, checksum set) rebuilds the weighted survivor sums, and a
// small Vandermonde solve per group recovers the lost rows. One broadcast
// restores the checksum replicas to the restarted ranks.
func (st *parallelState) injectAndRecover(p *mpi.Proc, c *mpi.Comm, faultRanks []int) error {
	if st.cs == nil {
		return fmt.Errorf("ime: fault injection requires checksum rows")
	}
	faults := map[int]bool{}
	for _, f := range faultRanks {
		if f < 0 || f >= st.ranks {
			return fmt.Errorf("ime: fault rank %d out of range [0,%d)", f, st.ranks)
		}
		if f == masterRank {
			return fmt.Errorf("ime: master rank holds h and is not recoverable by row checksums")
		}
		if faults[f] {
			return fmt.Errorf("ime: duplicate fault rank %d", f)
		}
		faults[f] = true
	}
	m := len(faultRanks)
	if m == 0 {
		return nil
	}
	if m > st.cs.sets {
		return fmt.Errorf("ime: %d simultaneous faults exceed %d checksum sets", m, st.cs.sets)
	}

	// The faults: lose the blocks (and, on a real machine, the local
	// checksum replicas, restored below from a survivor).
	if faults[st.me] {
		for g := range st.rows {
			st.rows[g] = make([]float64, st.n)
		}
	}

	k := maxBlock(st.n, st.ranks)
	for g := 0; g < k; g++ {
		// Weighted survivor sums, one allreduce per checksum set.
		rhs := make([][]float64, m)
		for j := 0; j < m; j++ {
			contrib := make([]float64, st.n)
			if !faults[st.me] && st.lo+g < st.hi {
				w := weight(st.me, j)
				for col, v := range st.rows[g] {
					contrib[col] = w * v
				}
			}
			sum, err := p.AllreduceSum(c, contrib)
			if err != nil {
				return fmt.Errorf("ime: recovery allreduce group %d set %d: %w", g, j, err)
			}
			r := make([]float64, st.n)
			for col := range r {
				r[col] = st.cs.rows[j][g][col] - sum[col]
			}
			rhs[j] = r
		}
		// Which faulted ranks have a g-th row?
		var lost []int
		for _, f := range faultRanks {
			lo, hi := BlockRange(st.n, st.ranks, f)
			if lo+g < hi {
				lost = append(lost, f)
			}
		}
		if len(lost) == 0 {
			continue
		}
		// Vandermonde system: Σ_t w_{lost[t]}^j · row_t = rhs_j, j = 0..len(lost)-1.
		recovered, err := solveVandermonde(lost, rhs[:len(lost)])
		if err != nil {
			return fmt.Errorf("ime: recovery group %d: %w", g, err)
		}
		if faults[st.me] && st.lo+g < st.hi {
			for t, f := range lost {
				if f == st.me {
					st.rows[g] = recovered[t]
				}
			}
		}
	}

	// Restore the checksum replicas on the restarted ranks from the master.
	for j := 0; j < st.cs.sets; j++ {
		for g := 0; g < k; g++ {
			var payload []float64
			if st.me == masterRank {
				payload = st.cs.rows[j][g]
			}
			got, err := p.Bcast(c, masterRank, payload)
			if err != nil {
				return fmt.Errorf("ime: checksum restore set %d group %d: %w", j, g, err)
			}
			if faults[st.me] {
				st.cs.rows[j][g] = got
			}
		}
	}
	return nil
}

// solveVandermonde solves Σ_t w_{ranks[t]}^j · x_t = rhs_j for the vector
// unknowns x_t, via Gaussian elimination with partial pivoting on the
// m×m Vandermonde coefficient matrix.
func solveVandermonde(ranks []int, rhs [][]float64) ([][]float64, error) {
	m := len(ranks)
	v := make([][]float64, m)
	for j := 0; j < m; j++ {
		v[j] = make([]float64, m)
		for t, r := range ranks {
			v[j][t] = weight(r, j)
		}
	}
	x := make([][]float64, m)
	for j := range rhs {
		x[j] = mat.VecClone(rhs[j])
	}
	// Forward elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv, pv := col, math.Abs(v[col][col])
		for r := col + 1; r < m; r++ {
			if a := math.Abs(v[r][col]); a > pv {
				piv, pv = r, a
			}
		}
		if pv == 0 {
			return nil, fmt.Errorf("ime: singular recovery system (ranks %v)", ranks)
		}
		v[col], v[piv] = v[piv], v[col]
		x[col], x[piv] = x[piv], x[col]
		for r := col + 1; r < m; r++ {
			f := v[r][col] / v[col][col]
			if f == 0 {
				continue
			}
			for t := col; t < m; t++ {
				v[r][t] -= f * v[col][t]
			}
			mat.Axpy(-f, x[col], x[r])
		}
	}
	// Back substitution.
	out := make([][]float64, m)
	for r := m - 1; r >= 0; r-- {
		acc := mat.VecClone(x[r])
		for t := r + 1; t < m; t++ {
			mat.Axpy(-v[r][t], out[t], acc)
		}
		mat.Scale(1/v[r][r], acc)
		out[r] = acc
	}
	return out, nil
}
