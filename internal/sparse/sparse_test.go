package sparse

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ime"
	"repro/internal/mat"
)

func TestParseRoundTrips(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("dense"); err == nil {
		t.Fatal("ParseKind accepted \"dense\"")
	}
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if got, err := ParseAlgorithm("bicgstab"); err != nil || got != BiCGSTAB {
		t.Fatalf("ParseAlgorithm is case-insensitive: got %v, %v", got, err)
	}
	if _, err := ParseAlgorithm("IMe"); err == nil {
		t.Fatal("ParseAlgorithm accepted \"IMe\"")
	}
}

func testSpecs() []Spec {
	return []Spec{
		{Kind: Banded, N: 60, Band: 4, Cond: 100, Seed: 7},
		{Kind: Random, N: 60, Density: 0.1, Cond: 50, Seed: 11},
	}
}

func TestGeneratorDeterministicSymmetricSPD(t *testing.T) {
	for _, spec := range testSpecs() {
		a, err := spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		b, err := spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: regeneration not byte-identical", spec.Label())
		}
		d := a.Dense()
		shift := spec.Shift()
		for i := 0; i < spec.N; i++ {
			var off float64
			for j := 0; j < spec.N; j++ {
				if d.At(i, j) != d.At(j, i) {
					t.Fatalf("%s: asymmetric at (%d,%d)", spec.Label(), i, j)
				}
				if j != i {
					off += math.Abs(d.At(i, j))
				}
			}
			// Strict diagonal dominance with margin δ ⇒ SPD (symmetric +
			// Gershgorin), the property CG depends on.
			if want := off + shift; math.Abs(d.At(i, i)-want) > 1e-12*want {
				t.Fatalf("%s: diag[%d] = %g, want rowsum+shift = %g", spec.Label(), i, d.At(i, i), want)
			}
			if off > spec.SBound() {
				t.Fatalf("%s: row %d off-diagonal sum %g exceeds SBound %g", spec.Label(), i, off, spec.SBound())
			}
		}
	}
}

func TestRowBlockMatchesFullMatrix(t *testing.T) {
	for _, spec := range testSpecs() {
		full, err := spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range [][2]int{{0, 13}, {13, 40}, {40, 60}, {0, 60}, {17, 17}} {
			blk, err := spec.RowBlock(cut[0], cut[1])
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := cut[0], cut[1]
			if blk.Rows != hi-lo {
				t.Fatalf("%s [%d,%d): %d rows", spec.Label(), lo, hi, blk.Rows)
			}
			for i := 0; i < blk.Rows; i++ {
				gs, ge := full.RowPtr[lo+i], full.RowPtr[lo+i+1]
				bs, be := blk.RowPtr[i], blk.RowPtr[i+1]
				if ge-gs != be-bs ||
					!reflect.DeepEqual(full.Col[gs:ge], blk.Col[bs:be]) ||
					!reflect.DeepEqual(full.Val[gs:ge], blk.Val[bs:be]) {
					t.Fatalf("%s: block row %d differs from full row %d", spec.Label(), i, lo+i)
				}
			}
		}
	}
}

func TestSpMVMatchesDense(t *testing.T) {
	for _, spec := range testSpecs() {
		a, err := spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		x := spec.RHS() // any deterministic vector
		want := a.Dense().MulVec(x)
		got := a.MulVec(x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%s: (A·x)[%d] = %g, want %g", spec.Label(), i, got[i], want[i])
			}
		}
	}
}

func TestCSRValidateRejects(t *testing.T) {
	bad := []*CSR{
		{Rows: 1, Cols: 1, RowPtr: []int{0}},                                            // short RowPtr
		{Rows: 1, Cols: 1, RowPtr: []int{0, 1}, Col: []int{1}, Val: []float64{1}},       // column out of range
		{Rows: 1, Cols: 3, RowPtr: []int{0, 2}, Col: []int{1, 1}, Val: []float64{1, 2}}, // non-increasing
		{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 0}, Col: []int{0}, Val: []float64{1}},    // non-monotone
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Fatalf("case %d: invalid CSR accepted", i)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []Spec{
		{Kind: Banded, N: 0, Band: 1, Cond: 10},
		{Kind: Banded, N: 10, Band: 0, Cond: 10},
		{Kind: Banded, N: 10, Band: 10, Cond: 10},
		{Kind: Random, N: 10, Density: 0, Cond: 10},
		{Kind: Random, N: 10, Density: 1.5, Cond: 10},
		{Kind: Banded, N: 10, Band: 2, Cond: 1},
		{Kind: Banded, N: 10, Band: 2, Cond: math.Inf(1)},
		{Kind: Kind(9), N: 10, Cond: 10},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d (%+v): invalid spec accepted", i, s)
		}
	}
}

func TestEstNNZBandedExact(t *testing.T) {
	spec := Spec{Kind: Banded, N: 60, Band: 4, Cond: 100, Seed: 7}
	a, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// Banded patterns are fully dense inside the band (values in
	// [-1,-0.1) never vanish), so the closed form is exact.
	if got := float64(a.NNZ()); got != spec.EstNNZ() {
		t.Fatalf("EstNNZ = %g, actual %g", spec.EstNNZ(), got)
	}
}

func TestBlockRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, ranks int }{{10, 3}, {96, 96}, {97, 8}, {5, 5}, {1000, 7}} {
		prev := 0
		for r := 0; r < tc.ranks; r++ {
			lo, hi := ime.BlockRange(tc.n, tc.ranks, r)
			if lo != prev || hi < lo {
				t.Fatalf("n=%d ranks=%d rank=%d: [%d,%d) after %d", tc.n, tc.ranks, r, lo, hi, prev)
			}
			for row := lo; row < hi; row++ {
				if ime.OwnerOf(tc.n, tc.ranks, row) != r {
					t.Fatalf("n=%d ranks=%d: ime.OwnerOf(%d) != %d", tc.n, tc.ranks, row, r)
				}
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d ranks=%d: partition covers %d rows", tc.n, tc.ranks, prev)
		}
	}
}

// Validate checks the structural invariants.
func (a *CSR) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative shape %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr has %d entries, want %d", len(a.RowPtr), a.Rows+1)
	}
	if len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: %d columns vs %d values", len(a.Col), len(a.Val))
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Val) {
		return fmt.Errorf("sparse: RowPtr bounds [%d,%d], want [0,%d]", a.RowPtr[0], a.RowPtr[a.Rows], len(a.Val))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] < 0 || a.Col[k] >= a.Cols {
				return fmt.Errorf("sparse: row %d column %d out of range [0,%d)", i, a.Col[k], a.Cols)
			}
			if k > a.RowPtr[i] && a.Col[k] <= a.Col[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly increasing", i)
			}
		}
	}
	return nil
}

// MulVec returns A·x for a vector of length Cols.
func (a *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, a.Rows)
	a.MulVecInto(y, x)
	return y
}

// Dense materialises the matrix — the seam to the dense reference solves
// the numerics tests cross-check against.
func (a *CSR) Dense() *mat.Dense {
	d := mat.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.Set(i, a.Col[k], a.Val[k])
		}
	}
	return d
}
