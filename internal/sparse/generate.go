package sparse

import (
	"fmt"
	"math"
)

// Spec is the deterministic recipe for one sparse SPD system: every
// entry of the matrix and the right-hand side is a pure function of
// (Spec, i, j), so any rank can generate exactly its row block with no
// input distribution or negotiation — the property the distributed
// solver's halo plan is built on (the sparsity pattern is symmetric, so
// peer sets follow from a rank's own rows).
type Spec struct {
	Kind Kind
	// N is the matrix order.
	N int
	// Band is the half-bandwidth (Banded kind): entries live at
	// |i−j| ≤ Band.
	Band int
	// Density is the independent off-diagonal entry probability
	// (Random kind).
	Density float64
	// Cond is the target condition-number bound, enforced via the
	// diagonal shift (see Shift): Gershgorin confines the spectrum to
	// [δ, 2·s+δ] for row sums s ≤ SBound, so κ ≲ Cond.
	Cond float64
	// Seed drives every pseudo-random draw.
	Seed int64
}

// Validate reports an error for an unusable spec.
func (s Spec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("sparse: order %d must be positive", s.N)
	}
	switch s.Kind {
	case Banded:
		if s.Band < 1 || s.Band >= s.N {
			return fmt.Errorf("sparse: half-bandwidth %d outside [1,%d)", s.Band, s.N)
		}
	case Random:
		if !(s.Density > 0 && s.Density <= 1) {
			return fmt.Errorf("sparse: density %g outside (0,1]", s.Density)
		}
	default:
		return fmt.Errorf("sparse: unknown matrix kind %v", s.Kind)
	}
	if !(s.Cond > 1) || math.IsInf(s.Cond, 0) || math.IsNaN(s.Cond) {
		return fmt.Errorf("sparse: condition target %g must exceed 1", s.Cond)
	}
	return nil
}

// Label renders a short human-readable identifier such as
// "banded/n=4096/band=64/cond=100".
func (s Spec) Label() string {
	switch s.Kind {
	case Random:
		return fmt.Sprintf("random/n=%d/density=%g/cond=%g", s.N, s.Density, s.Cond)
	default:
		return fmt.Sprintf("banded/n=%d/band=%d/cond=%g", s.N, s.Band, s.Cond)
	}
}

// Hash salts separating the independent pseudo-random streams.
const (
	saltPresence = 0x70726573 // off-diagonal presence (Random kind)
	saltValue    = 0x76616c75 // off-diagonal values
	saltRHS      = 0x72687321 // right-hand side
)

// splitmix64 is the seeded hash behind every draw (same construction the
// analytic engine's jitter uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairHash hashes (seed, salt, i, j); callers pass (min,max) so the draw
// is symmetric in (i,j).
func (s Spec) pairHash(salt uint64, i, j int) uint64 {
	h := splitmix64(uint64(s.Seed) ^ salt)
	h = splitmix64(h ^ uint64(i))
	return splitmix64(h ^ uint64(j)<<1)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// SBound is a deterministic bound on the off-diagonal absolute row sum
// used to place the diagonal shift. For Banded it is exact (each |entry|
// < 1); for Random it covers the expectation with slack for fluctuation,
// so the realised condition number lands at or below Cond.
func (s Spec) SBound() float64 {
	switch s.Kind {
	case Random:
		return 1.5*s.Density*float64(s.N-1) + 2
	default:
		return 2 * float64(s.Band)
	}
}

// Shift is the diagonal shift δ: with diag = rowAbsSum + δ, Gershgorin
// gives eigenvalues in [δ, 2·SBound+δ], hence κ ≤ 1 + 2·SBound/δ = Cond.
func (s Spec) Shift() float64 { return 2 * s.SBound() / (s.Cond - 1) }

// rowGen generates the rows of one block. The symmetric off-diagonal
// entry A[i][j] = A[j][i] is present inside the band (Banded) or where the
// presence draw falls below Density (Random), with a value in [-1,-0.1):
// a negative, Laplacian-like stencil weight whose sign is immaterial to
// the SPD construction, which only uses |A[i][j]|. Both draws are
// pairHash(salt, min, max), whose first two rounds depend on the seed, the
// salt and min alone; those are tabulated once per block for every index
// that can be the smaller of a pair, leaving one round per draw.
type rowGen struct {
	s     Spec
	shift float64
	// val[k-base] and pres[k-base] are pairHash's state after mixing in
	// min = k, for the value and (Random kind) presence streams.
	base      int
	val, pres []uint64
}

// newRowGen prepares the generator for rows [lo,hi).
func (s Spec) newRowGen(lo, hi int) *rowGen {
	g := &rowGen{s: s, shift: s.Shift()}
	if s.Kind == Banded {
		g.base = max(lo-s.Band, 0)
	}
	table := func(salt uint64) []uint64 {
		t := make([]uint64, hi-g.base)
		seed := splitmix64(uint64(s.Seed) ^ salt)
		for k := range t {
			t[k] = splitmix64(seed ^ uint64(g.base+k))
		}
		return t
	}
	g.val = table(saltValue)
	if s.Kind == Random {
		g.pres = table(saltPresence)
	}
	return g
}

// nnzBound sizes the value slice of rows [lo,hi): the exact count for
// Banded, the expectation plus six standard deviations for Random (append
// covers the remainder of the distribution).
func (s Spec) nnzBound(lo, hi int) int {
	if s.Kind == Random {
		pairs := float64(hi-lo) * float64(s.N-1)
		return hi - lo + int(pairs*s.Density+6*math.Sqrt(pairs*s.Density*(1-s.Density))) + 1
	}
	nnz := 0
	for i := lo; i < hi; i++ {
		nnz += min(i+s.Band, s.N-1) - max(i-s.Band, 0) + 1
	}
	return nnz
}

// appendRow appends row i, in ascending column order, as runs of global
// columns and their values.
func (g *rowGen) appendRow(i int, runs []run, vals []float64) ([]run, []float64) {
	s := g.s
	jlo, jhi := 0, s.N
	if s.Kind == Banded {
		jlo, jhi = max(i-s.Band, 0), min(i+s.Band+1, s.N)
	}
	var rowSum float64
	diagAt := -1
	open := false // the last run ends at column j-1
	for j := jlo; j < jhi; j++ {
		var v float64
		if j == i {
			diagAt = len(vals) // patched below
		} else {
			a, b := j, uint64(i)<<1
			if i < j {
				a, b = i, uint64(j)<<1
			}
			if s.Kind == Random && unit(splitmix64(g.pres[a-g.base]^b)) >= s.Density {
				open = false
				continue
			}
			v = -(0.1 + 0.9*unit(splitmix64(g.val[a-g.base]^b)))
			rowSum += math.Abs(v)
		}
		if open {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{start: int32(j), n: 1})
			open = true
		}
		vals = append(vals, v)
	}
	vals[diagAt] = rowSum + g.shift
	return runs, vals
}

// rowRuns generates rows [lo,hi) in run form with global column indices.
func (s Spec) rowRuns(lo, hi int) (*runMatrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > s.N {
		return nil, fmt.Errorf("sparse: row block [%d,%d) outside [0,%d]", lo, hi, s.N)
	}
	if s.N > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: order %d exceeds the generator's 32-bit column range", s.N)
	}
	g := s.newRowGen(lo, hi)
	bound := s.nnzBound(lo, hi)
	m := &runMatrix{rows: hi - lo, cols: s.N, rowRun: make([]int32, hi-lo+1), val: make([]float64, 0, bound)}
	if s.Kind == Banded {
		m.runs = make([]run, 0, hi-lo)
	} else {
		m.runs = make([]run, 0, bound)
	}
	for i := lo; i < hi; i++ {
		m.runs, m.val = g.appendRow(i, m.runs, m.val)
		m.rowRun[i-lo+1] = int32(len(m.runs))
	}
	return m, nil
}

// RowBlock generates rows [lo,hi) of the matrix as a CSR with global
// column indices. RowBlock(0,N) is the full matrix.
func (s Spec) RowBlock(lo, hi int) (*CSR, error) {
	m, err := s.rowRuns(lo, hi)
	if err != nil {
		return nil, err
	}
	return m.csr(), nil
}

// Matrix generates the full matrix.
func (s Spec) Matrix() (*CSR, error) { return s.RowBlock(0, s.N) }

// RHSRange generates entries [lo,hi) of the right-hand side, values in
// [-1,1).
func (s Spec) RHSRange(lo, hi int) []float64 {
	b := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		b[i-lo] = 2*unit(s.pairHash(saltRHS, i, i)) - 1
	}
	return b
}

// RHS generates the full right-hand side.
func (s Spec) RHS() []float64 { return s.RHSRange(0, s.N) }

// EstNNZ is the analytic model's entry count: exact for Banded
// (n + 2·band·n − band·(band+1) after edge truncation), the expectation
// for Random (n diagonal + n·(n−1)·density off-diagonal).
func (s Spec) EstNNZ() float64 {
	n := float64(s.N)
	switch s.Kind {
	case Random:
		return n + n*(n-1)*s.Density
	default:
		b := float64(s.Band)
		return n + 2*b*n - b*(b+1)
	}
}
