package scalapack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// uRowState builds the pdState of process (0, pc) of a 1×pc grid holding
// an n-order system in nb-wide blocks, every entry from draw. Only what
// computeURow reads is filled in.
func uRowState(draw func() float64, n, nb, pcs, pc int) *pdState {
	st := &pdState{grid: Grid{Pr: 1, Pc: pcs}, pc: pc, n: n, nb: nb, panelRows: make([]int, nb)}
	for g := 0; g < n; g++ {
		st.myRows = append(st.myRows, g)
		if o, _ := OwnerAndLocal(g, nb, pcs); o == pc {
			st.myCols = append(st.myCols, g)
		}
	}
	st.a = mat.New(len(st.myRows), len(st.myCols))
	data, _ := st.a.Raw()
	for i := range data {
		data[i] = draw()
	}
	st.b = make([]float64, n)
	for i := range st.b {
		st.b[i] = draw()
	}
	return st
}

// Entry draws for the U-row tests. mixed is normal with about one entry
// in eight a signed zero, an infinity, a NaN, a subnormal or a huge value;
// signedUnits draws from {+0, −0, +1, −1}, where sums of zero products
// show in the sign of a zero whether a solve starts its sums from +0 and
// subtracts each once.
var (
	uRowSpecials = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -2.5e-310, math.MaxFloat64, -1e300}
	uRowDraws = map[string]func(*rand.Rand) float64{
		"mixed": func(rng *rand.Rand) float64 {
			if rng.Intn(8) == 0 {
				return uRowSpecials[rng.Intn(len(uRowSpecials))]
			}
			return rng.NormFloat64()
		},
		"signedUnits": func(rng *rand.Rand) float64 { return uRowSpecials[rng.Intn(4)] },
	}
)

// computeURowByColumn is the column-at-a-time forward substitution, the
// reference the row-wise computeURow must match bit for bit: per trailing
// column, per panel row i, the sum of L[i][t]·U[t][j] in ascending t,
// subtracted once.
func computeURowByColumn(st *pdState, k0, k1 int, lpanel []float64) {
	kw := k1 - k0
	lis := make([]int, kw)
	for t := range lis {
		lis[t], _ = st.localRow(k0 + t)
	}
	for _, gj := range st.myCols {
		if gj < k1 {
			continue
		}
		lj, _ := st.localCol(gj)
		for i := 1; i < kw; i++ {
			var s float64
			lrow := lpanel[lis[i]*kw : (lis[i]+1)*kw]
			for t := 0; t < i; t++ {
				s += lrow[t] * st.a.At(lis[t], lj)
			}
			st.a.Set(lis[i], lj, st.a.At(lis[i], lj)-s)
		}
	}
	for i := 1; i < kw; i++ {
		var s float64
		lrow := lpanel[lis[i]*kw : (lis[i]+1)*kw]
		for t := 0; t < i; t++ {
			s += lrow[t] * st.b[lis[t]]
		}
		st.b[lis[i]] -= s
	}
}

// TestComputeURowBitIdentical holds the row-wise U12 solve to the column
// loop bit for bit (any NaN matching any NaN), on every panel of a
// 1×3 grid's middle column — full panels and the short last one, panels
// this column owns and panels it does not — over special values too.
func TestComputeURowBitIdentical(t *testing.T) {
	const n, nb, pcs, pc = 44, 8, 3, 1
	for name, draw := range uRowDraws {
		for k0 := 0; k0 < n; k0 += nb {
			k1 := min(k0+nb, n)
			// Two identical states and the panel, all from one seed.
			draws := func() (*pdState, []float64) {
				rng := rand.New(rand.NewSource(int64(k0)))
				st := uRowState(func() float64 { return draw(rng) }, n, nb, pcs, pc)
				lpanel := make([]float64, n*(k1-k0))
				for i := range lpanel {
					lpanel[i] = draw(rng)
				}
				return st, lpanel
			}
			got, lpanel := draws()
			want, _ := draws()
			got.computeURow(k0, k1, lpanel)
			computeURowByColumn(want, k0, k1, lpanel)
			gd, _ := got.a.Raw()
			wd, _ := want.a.Raw()
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"a", gd, wd}, {"b", got.b, want.b}} {
				for i := range c.want {
					if g, w := c.got[i], c.want[i]; !(math.IsNaN(w) && math.IsNaN(g)) && math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s, panel at %d: %s[%d] = %x, column loop %x", name, k0, c.what, i, math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestComputeURowAllocatesNothing: the U12 solve runs every panel on the
// process row that owns it, so its scratch must come from the buffer
// pool. A per-call or per-rank allocation here shows up in the
// engine-wide allocation budgets.
func TestComputeURowAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	const n, nb = 64, 16
	rng := rand.New(rand.NewSource(1))
	st := uRowState(rng.NormFloat64, n, nb, 2, 0)
	lpanel := make([]float64, n*nb)
	for _, k0 := range []int{0, 16} {
		t.Run(fmt.Sprintf("k0=%d", k0), func(t *testing.T) {
			st.computeURow(k0, k0+nb, lpanel) // warm the pool
			if got := testing.AllocsPerRun(20, func() { st.computeURow(k0, k0+nb, lpanel) }); got != 0 {
				t.Errorf("computeURow: %v allocations per call, want 0", got)
			}
		})
	}
}
