package sparse

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// refMulVecInto is the oracle of every SpMV in the package: the
// per-entry-index loop with one accumulator per row that the solver ran
// before its matrix became runs.
func refMulVecInto(a *CSR, dst, x []float64) {
	for i := 0; i < a.Rows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		dst[i] = s
	}
}

// refRowBlock is the oracle of the generator: every entry drawn through
// pairHash on its own, as RowBlock did before the hash prefix was
// tabulated.
func refRowBlock(s Spec, lo, hi int) *CSR {
	offdiag := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		if s.Kind == Banded && j-i > s.Band {
			return 0
		}
		if s.Kind == Random && unit(s.pairHash(saltPresence, i, j)) >= s.Density {
			return 0
		}
		return -(0.1 + 0.9*unit(s.pairHash(saltValue, i, j)))
	}
	a := &CSR{Rows: hi - lo, Cols: s.N, RowPtr: make([]int, hi-lo+1), Col: []int{}, Val: []float64{}}
	for i := lo; i < hi; i++ {
		var rowSum float64
		diagAt := -1
		for j := 0; j < s.N; j++ {
			if j == i {
				diagAt = len(a.Val)
				a.Col = append(a.Col, j)
				a.Val = append(a.Val, 0)
			} else if v := offdiag(i, j); v != 0 {
				a.Col = append(a.Col, j)
				a.Val = append(a.Val, v)
				rowSum += math.Abs(v)
			}
		}
		a.Val[diagAt] = rowSum + s.Shift()
		a.RowPtr[i-lo+1] = len(a.Val)
	}
	return a
}

func TestRowBlockMatchesPerEntryOracle(t *testing.T) {
	specs := append(testSpecs(),
		Spec{Kind: Banded, N: 20, Band: 15, Cond: 30, Seed: -4},    // band clipped at both edges of every row
		Spec{Kind: Random, N: 50, Density: 0.6, Cond: 20, Seed: 3}, // long runs
		Spec{Kind: Random, N: 200, Density: 0.01, Cond: 20, Seed: 3},
	)
	for _, spec := range specs {
		for _, cut := range [][2]int{{0, spec.N}, {0, 7}, {7, 19}, {spec.N - 3, spec.N}, {5, 5}} {
			got, err := spec.RowBlock(cut[0], cut[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s [%d,%d): %v", spec.Label(), cut[0], cut[1], err)
			}
			if want := refRowBlock(spec, cut[0], cut[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s [%d,%d): generated block differs from the per-entry oracle", spec.Label(), cut[0], cut[1])
			}
		}
	}
}

// runsOf converts a CSR to run form.
func runsOf(a *CSR) *runMatrix {
	m := &runMatrix{rows: a.Rows, cols: a.Cols, rowRun: make([]int32, a.Rows+1), val: a.Val}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if k > a.RowPtr[i] && a.Col[k] == a.Col[k-1]+1 {
				m.runs[len(m.runs)-1].n++
			} else {
				m.runs = append(m.runs, run{start: int32(a.Col[k]), n: 1})
			}
		}
		m.rowRun[i+1] = int32(len(m.runs))
	}
	return m
}

// patternCSR builds a matrix from a row-major presence bitmap (bit k of
// the bitmap is entry (k/cols, k%cols); bits past the last whole row are
// dropped) and an input vector for it. Magnitudes span sixty
// binades and both signs, so any change in a row's summation order or
// accumulator count shows in the low bits of the result.
func patternCSR(cols int, bitmap []byte) (*CSR, []float64) {
	wide := func(h uint64) float64 {
		return math.Ldexp(2*unit(h)-1, int(h%61)-30)
	}
	rows := len(bitmap) * 8 / cols
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if k := i*cols + j; bitmap[k/8]>>(k%8)&1 != 0 {
				a.Col = append(a.Col, j)
				a.Val = append(a.Val, wide(splitmix64(uint64(k))))
			}
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	x := make([]float64, cols)
	for j := range x {
		x[j] = wide(splitmix64(^uint64(j)))
	}
	return a, x
}

// bitmapOf packs rows drawn as strings ('#' present, anything else
// absent) into patternCSR's bitmap.
func bitmapOf(rows []string) (cols int, bitmap []byte) {
	cols = len(rows[0])
	bitmap = make([]byte, (len(rows)*cols+7)/8)
	for i, row := range rows {
		for j, c := range row {
			if c == '#' {
				bitmap[(i*cols+j)/8] |= 1 << ((i*cols + j) % 8)
			}
		}
	}
	return cols, bitmap
}

// checkRunSpMV asserts the run kernel equals the oracle bit for bit, row
// by row.
func checkRunSpMV(t *testing.T, a *CSR, x []float64) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	want, got := make([]float64, a.Rows), make([]float64, a.Rows)
	refMulVecInto(a, want, x)
	runsOf(a).mulVecInto(got, x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: run kernel %x (%g), oracle %x (%g)", i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

var runSpMVCases = []struct {
	name string
	rows []string
}{
	{"empty rows", []string{"....", "####", "....", "....", "#..#"}},
	{"single-entry rows", []string{"#....", ".#...", "....#", "..#..", "#...."}},
	{"paired single runs, odd row count", []string{"###...", ".###..", "..###.", "...###", "###..."}},
	{"equal run counts, unequal lengths", []string{"##....", "###...", "..####", "...###"}},
	{"unequal run counts", []string{"##.##.#", "#######", "#.#.#.#", ".#####.", "##...##", "..###.."}},
	{"single run beside a split row of the same length", []string{"####..", "##..##", "..####", "####.."}},
	{"one row", []string{".####."}},
	{"one column", []string{"#", "#", ".", "#"}},
	{"band clipped at both edges", []string{"###..", "####.", "#####", ".####", "..###"}},
}

func TestRunSpMVMatchesOracle(t *testing.T) {
	for _, tc := range runSpMVCases {
		t.Run(tc.name, func(t *testing.T) {
			a, x := patternCSR(bitmapOf(tc.rows))
			checkRunSpMV(t, a, x)
		})
	}
	for _, spec := range []Spec{
		{Kind: Banded, N: 4096, Band: 64, Cond: 100, Seed: 20230612},
		{Kind: Random, N: 700, Density: 0.03, Cond: 60, Seed: 7},
	} {
		a, err := spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		checkRunSpMV(t, a, spec.RHS())
	}
}

func FuzzRunSpMV(f *testing.F) {
	for _, tc := range runSpMVCases {
		cols, bitmap := bitmapOf(tc.rows)
		f.Add(uint8(cols-1), bitmap)
	}
	f.Fuzz(func(t *testing.T, cols uint8, bitmap []byte) {
		if len(bitmap) > 1<<12 {
			t.Skip()
		}
		a, x := patternCSR(int(cols)+1, bitmap)
		checkRunSpMV(t, a, x)
	})
}

// TestDistSpMVMatchesOracle runs the solver's own halo exchange and SpMV
// on every rank and holds the owned rows to the full-matrix oracle, bit
// for bit: the extended-vector remap may move columns but never reorder
// a row. The grid covers a block whose band is clipped at both matrix
// edges, first and last ranks (no left, no right peer), interior ranks,
// peers beyond the nearest neighbour, and unstructured rows.
func TestDistSpMVMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		spec  Spec
		ranks []int
	}{
		{Spec{Kind: Banded, N: 20, Band: 15, Cond: 30, Seed: 1}, []int{1, 2, 3}},
		{Spec{Kind: Banded, N: 97, Band: 5, Cond: 30, Seed: 2}, []int{1, 2, 8}},
		{Spec{Kind: Banded, N: 64, Band: 20, Cond: 30, Seed: 3}, []int{7}},
		{Spec{Kind: Random, N: 90, Density: 0.05, Cond: 30, Seed: 4}, []int{1, 4, 9}},
		{Spec{Kind: Random, N: 40, Density: 0.7, Cond: 30, Seed: 5}, []int{3}},
	} {
		full, err := tc.spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		x := tc.spec.RHS()
		want := make([]float64, tc.spec.N)
		refMulVecInto(full, want, x)
		for _, ranks := range tc.ranks {
			w, err := mpi.NewWorld(ranks, mpi.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := make([]float64, tc.spec.N)
			err = w.Run(func(p *mpi.Proc) error {
				d, err := newDist(p, tc.spec, false)
				if err != nil {
					return err
				}
				if err := d.exchange(1, x[d.lo:d.hi]); err != nil {
					return err
				}
				y := make([]float64, d.rows)
				d.spmv(1, y)
				mu.Lock()
				copy(got[d.lo:d.hi], y)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", tc.spec.Label(), ranks, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s ranks=%d: row %d = %x, oracle %x", tc.spec.Label(), ranks, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}
