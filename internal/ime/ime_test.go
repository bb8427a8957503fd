package ime

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestSolveSequentialSmallKnown(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a, _ := mat.NewFromData(2, 2, []float64{2, 1, 1, 3})
	sys := &mat.System{A: a, B: []float64{5, 10}}
	x, err := SolveSequential(sys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveSequentialIdentity(t *testing.T) {
	n := 5
	sys := &mat.System{A: mat.New(n, n), B: []float64{1, 2, 3, 4, 5}}
	for i := 0; i < n; i++ {
		sys.A.Set(i, i, 1)
	}
	x, err := SolveSequential(sys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.Abs(v-float64(i+1)) > 1e-15 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveSequentialRandomSystems(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64, 100} {
		sys := mat.NewRandomSystem(n, int64(n)*13+1)
		x, err := SolveSequential(sys)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rr := mat.RelativeResidual(sys.A, x, sys.B); rr > 1e-12 {
			t.Fatalf("n=%d: relative residual %g", n, rr)
		}
		for i := range x {
			if math.Abs(x[i]-sys.X[i]) > 1e-8*(1+math.Abs(sys.X[i])) {
				t.Fatalf("n=%d: x[%d]=%g want %g", n, i, x[i], sys.X[i])
			}
		}
	}
}

func TestSolveSequentialQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%40) + 1
		if n < 0 {
			n = -n + 1
		}
		sys := mat.NewRandomSystem(n, seed)
		x, err := SolveSequential(sys)
		if err != nil {
			return false
		}
		return mat.RelativeResidual(sys.A, x, sys.B) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSingularDiagonalRejected(t *testing.T) {
	a, _ := mat.NewFromData(2, 2, []float64{0, 1, 1, 0})
	sys := &mat.System{A: a, B: []float64{1, 1}}
	if _, err := SolveSequential(sys); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestSingularPivotMidway(t *testing.T) {
	// Diagonal fine initially but elimination produces a zero pivot:
	// rows identical after scaling.
	a, _ := mat.NewFromData(2, 2, []float64{1, 1, 2, 2})
	sys := &mat.System{A: a, B: []float64{1, 2}}
	if _, err := SolveSequential(sys); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestTableLifecycle(t *testing.T) {
	sys := mat.NewRandomSystem(6, 3)
	tab, err := NewTable(sys)
	if err != nil {
		t.Fatal(err)
	}
	if tab.n != 6 || tab.level != 6 {
		t.Fatalf("fresh table N=%d level=%d", tab.n, tab.level)
	}
	if _, err := tab.Solution(); err == nil {
		t.Fatal("Solution before reduction accepted")
	}
	if _, _, err := tab.PivotRow(0); err == nil {
		t.Fatal("PivotRow(0) accepted")
	}
	if _, _, err := tab.PivotRow(7); err == nil {
		t.Fatal("PivotRow out of range accepted")
	}
	for i := 6; i > 0; i-- {
		if err := tab.Step(); err != nil {
			t.Fatal(err)
		}
		if tab.level != i-1 {
			t.Fatalf("level = %d after step, want %d", tab.level, i-1)
		}
	}
	if err := tab.Step(); err == nil {
		t.Fatal("Step past full reduction accepted")
	}
	x, err := tab.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if rr := mat.RelativeResidual(sys.A, x, sys.B); rr > 1e-12 {
		t.Fatalf("residual %g", rr)
	}
}

func TestPivotRowShrinks(t *testing.T) {
	sys := mat.NewRandomSystem(8, 5)
	tab, err := NewTable(sys)
	if err != nil {
		t.Fatal(err)
	}
	// At the first level, the pivot row has full length n; after k steps,
	// level n−k's row has length n−k — the paper's shrinking table.
	pr, _, err := tab.PivotRow(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) != 8 {
		t.Fatalf("level-8 pivot row has %d entries", len(pr))
	}
	for i := 0; i < 3; i++ {
		if err := tab.Step(); err != nil {
			t.Fatal(err)
		}
	}
	pr, _, err = tab.PivotRow(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) != 5 {
		t.Fatalf("level-5 pivot row has %d entries", len(pr))
	}
}

func TestNewTableRejectsInvalidSystem(t *testing.T) {
	if _, err := NewTable(&mat.System{A: mat.New(2, 3), B: []float64{1, 2}}); err == nil {
		t.Fatal("non-square system accepted")
	}
}

func TestBlockRangePartition(t *testing.T) {
	f := func(nRaw, ranksRaw uint8) bool {
		n := int(nRaw)%200 + 1
		ranks := int(ranksRaw)%16 + 1
		if ranks > n {
			ranks = n
		}
		covered := 0
		prevHi := 0
		for r := 0; r < ranks; r++ {
			lo, hi := BlockRange(n, ranks, r)
			if lo != prevHi || hi < lo {
				return false
			}
			for i := lo; i < hi; i++ {
				if OwnerOf(n, ranks, i) != r {
					return false
				}
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeEdgeCases(t *testing.T) {
	if lo, hi := BlockRange(10, 3, 5); lo != 0 || hi != 0 {
		t.Fatal("out-of-range rank should own nothing")
	}
	if lo, hi := BlockRange(10, 0, 0); lo != 0 || hi != 0 {
		t.Fatal("zero ranks should own nothing")
	}
	if OwnerOf(10, 3, -1) != -1 || OwnerOf(10, 3, 10) != -1 {
		t.Fatal("invalid rows must map to -1")
	}
}

func TestFlopFormulas(t *testing.T) {
	n := 100
	var sum float64
	for l := 1; l <= n; l++ {
		sum += LevelFlops(n, l)
	}
	if math.Abs(sum-TotalFlops(n)) > 1 {
		t.Fatalf("Σ LevelFlops = %g, TotalFlops = %g", sum, TotalFlops(n))
	}
	// The published complexity: 3/2·n³ leading term.
	if r := TotalFlops(n) / (1.5 * 100 * 100 * 100); r < 1 || r > 1.02 {
		t.Fatalf("TotalFlops ratio to 1.5n³ = %g", r)
	}
}

// paperMemoryOccupation is the paper's per-deployment memory model
// m_o = 2n² + 2nN + 3n floats for the parallel method (§2.1), and the
// sequential occupation 2n² + 3n when N == 1.
func paperMemoryOccupation(n, ranks int) float64 {
	nf, nr := float64(n), float64(ranks)
	if ranks <= 1 {
		return 2*nf*nf + 3*nf
	}
	return 2*nf*nf + 2*nf*nr + 3*nf
}

func TestPaperFormulas(t *testing.T) {
	// m_o(IMeP) = 2n² + 2nN + 3n and the sequential 2n² + 3n (§2.1).
	if got := paperMemoryOccupation(100, 4); got != 2*100*100+2*100*4+3*100 {
		t.Fatalf("parallel memory occupation = %g", got)
	}
	if got := paperMemoryOccupation(100, 1); got != 2*100*100+3*100 {
		t.Fatalf("sequential memory occupation = %g", got)
	}
	if got := PaperMessageCount(100, 4); got != 100*100+2*3*100+2*3 {
		t.Fatalf("M_IMeP = %g", got)
	}
	if got := PaperMessageVolume(100, 4); got != 6*100*100+2*3*100 {
		t.Fatalf("V_IMeP = %g", got)
	}
}
