// Package scalapack implements the slice of ScaLAPACK the paper benchmarks:
// dense LU factorisation with partial pivoting and the corresponding
// linear-system solve (pdgesv), on a 2-D block-cyclic data distribution
// over a process grid — plus the sequential LAPACK-style baseline
// (dgetrf/dgesv) it degenerates to on one rank.
//
// The package follows the library's key concepts (§2.2): a runtime-
// parametrised block-cyclic distribution, block-partitioned right-looking
// elimination for data reuse, and partial pivoting for numerical
// stability.
package scalapack

import "fmt"

// DefaultBlockSize is the distribution/panel block size nb. 64 is a
// typical pdgetrf choice on Skylake-class nodes.
const DefaultBlockSize = 64

// Grid is a Pr×Pc process grid over the ranks of a communicator, mapped
// row-major: comm rank = pr·Pc + pc.
type Grid struct {
	Pr, Pc int
}

// NewGrid builds the most square grid for p ranks (Pr ≤ Pc, Pr·Pc = p) —
// the shape ScaLAPACK guides recommend and the paper's square rank counts
// (144, 576, 1296) make exact.
func NewGrid(p int) (Grid, error) {
	if p <= 0 {
		return Grid{}, fmt.Errorf("scalapack: grid needs positive rank count, got %d", p)
	}
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Grid{Pr: pr, Pc: p / pr}, nil
}

// Size returns the rank count of the grid.
func (g Grid) Size() int { return g.Pr * g.Pc }

// Coords maps a comm rank to its (pr, pc) grid coordinates.
func (g Grid) Coords(rank int) (pr, pc int, err error) {
	if rank < 0 || rank >= g.Size() {
		return 0, 0, fmt.Errorf("scalapack: rank %d outside %d×%d grid", rank, g.Pr, g.Pc)
	}
	return rank / g.Pc, rank % g.Pc, nil
}

// Rank maps grid coordinates back to a comm rank.
func (g Grid) Rank(pr, pc int) int { return pr*g.Pc + pc }

// Numroc (NUMber of Rows Or Columns) returns how many of n global indices
// distributed in blocks of nb over np processes land on process p —
// ScaLAPACK's NUMROC with zero source offset.
func Numroc(n, nb, p, np int) int {
	if n <= 0 || nb <= 0 || np <= 0 || p < 0 || p >= np {
		return 0
	}
	nblocks := n / nb
	count := (nblocks / np) * nb
	extra := nblocks % np
	switch {
	case p < extra:
		count += nb
	case p == extra:
		count += n % nb
	}
	return count
}

// OwnerAndLocal maps a global index to its owning process and the local
// index there, for block size nb over np processes.
func OwnerAndLocal(g, nb, np int) (owner, local int) {
	block := g / nb
	owner = block % np
	local = (block/np)*nb + g%nb
	return owner, local
}
