package kernel

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestGemmMatchesScalar checks the blocked multicore GEMM against the
// naive triple-loop reference within 1e-12 relative error, across shapes
// that exercise every tail path (odd m, odd n, k crossing the kc panel
// boundary, strided C).
func TestGemmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 4, 9}, {17, 13, 300},
		{64, 64, 64}, {33, 2, 257}, {2, 33, 300}, {70, 70, 520},
	} {
		a := randSlice(rng, tc.m*tc.k)
		b := randSlice(rng, tc.k*tc.n)
		got := randSlice(rng, tc.m*tc.n)
		want := append([]float64(nil), got...)
		for _, alpha := range []float64{1, -1, 0.5} {
			Gemm(tc.m, tc.n, tc.k, alpha, a, tc.k, b, tc.n, got, tc.n)
			GemmScalar(tc.m, tc.n, tc.k, alpha, a, tc.k, b, tc.n, want, tc.n)
			for i := range got {
				if diff := math.Abs(got[i] - want[i]); diff > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("m=%d n=%d k=%d alpha=%g: C[%d] = %g, scalar %g",
						tc.m, tc.n, tc.k, alpha, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmStrided checks that the kernels honour leading dimensions larger
// than the logical width (matrix views).
func TestGemmStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, k := 9, 7, 11
	lda, ldb, ldc := k+3, n+2, n+5
	a := randSlice(rng, m*lda)
	b := randSlice(rng, k*ldb)
	got := randSlice(rng, m*ldc)
	want := append([]float64(nil), got...)
	Gemm(m, n, k, -1, a, lda, b, ldb, got, ldc)
	GemmScalar(m, n, k, -1, a, lda, b, ldb, want, ldc)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("strided C[%d] = %g, scalar %g", i, got[i], want[i])
		}
	}
	// Padding columns outside the logical view must be untouched.
	for i := 0; i < m; i++ {
		for j := n; j < ldc; j++ {
			if got[i*ldc+j] != want[i*ldc+j] {
				t.Fatalf("padding (%d,%d) was modified", i, j)
			}
		}
	}
}

// TestGemmSinglePanelBitIdentical: for k ≤ kc the blocked kernel
// accumulates in the same ascending-k order as the scalar reference and
// applies alpha the same way, so full-tile results are bit-identical.
func TestGemmSinglePanelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n, k := 16, 16, 64 // multiples of the tile: no tail paths
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	got := make([]float64, m*n)
	want := make([]float64, m*n)
	Gemm(m, n, k, -1, a, k, b, n, got, n)
	GemmScalar(m, n, k, -1, a, k, b, n, want, n)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %x, scalar %x (not bit-identical)", i, got[i], want[i])
		}
	}
}

func TestAxpyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 3, 4, 7, 129} {
		x := randSlice(rng, n)
		got := randSlice(rng, n)
		want := append([]float64(nil), got...)
		m := rng.NormFloat64()
		Axpy(-m, x, got)
		for i := range want {
			want[i] -= m * x[i]
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: y[%d] = %x, reference %x", n, i, got[i], want[i])
			}
		}
	}
}

func TestScaledCopyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 5, 64, 101} {
		src := randSlice(rng, n)
		got := make([]float64, n)
		alpha := rng.NormFloat64()
		ScaledCopy(alpha, src, got)
		for i := range got {
			if want := alpha * src[i]; got[i] != want {
				t.Fatalf("n=%d: dst[%d] = %x, want %x", n, i, got[i], want)
			}
		}
	}
}

func TestDotMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 4, 7, 1024} {
		x, y := randSlice(rng, n), randSlice(rng, n)
		want := DotSerial(x, y)
		if got := Dot(x, y); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("n=%d: dot %g, serial %g", n, got, want)
		}
	}
}

func TestMatVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 37, 53
	a := randSlice(rng, m*n)
	x := randSlice(rng, n)
	y := make([]float64, m)
	MatVec(m, n, a, n, x, y)
	for i := 0; i < m; i++ {
		want := DotSerial(a[i*n:(i+1)*n], x)
		if math.Abs(y[i]-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("y[%d] = %g, reference %g", i, y[i], want)
		}
	}
}

// TestParallelForCoversRangeExactlyOnce drives the pool from several
// goroutines at once; every index must be visited exactly once per call.
func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 4097} {
		counts := make([]int32, n)
		ParallelFor(n, 3, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad span [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestGemmConcurrentCallers runs many GEMMs through the shared pool
// concurrently (as simulated MPI ranks do) and checks each result — this
// is the kernel-level race test backing the -race CI job.
func TestGemmConcurrentCallers(t *testing.T) {
	const callers = 8
	const m, n, k = 40, 40, 96
	rng := rand.New(rand.NewSource(8))
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := make([]float64, m*n)
	GemmScalar(m, n, k, 1, a, k, b, n, want, n)
	done := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			got := make([]float64, m*n)
			Gemm(m, n, k, 1, a, k, b, n, got, n)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					done <- errIndex(i)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errIndex int

func (e errIndex) Error() string { return "concurrent GEMM diverged" }

// TestRunsInlineAgreesWithParallelFor pins the predicate hot call sites
// use to skip building a closure: it must answer exactly what ParallelFor
// would do, and a call site that takes the inline branch on its word must
// leave the same trace in the pool's telemetry as ParallelFor itself.
func TestRunsInlineAgreesWithParallelFor(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	calls := reg.Counter("kernel_parallel_for_total", "")
	inline := reg.Counter("kernel_parallel_for_inline_total", "")

	for _, tc := range []struct{ n, grain int }{
		{0, 4}, {1, 1}, {2, 1}, {7, 4}, {8, 4}, {100, 16}, {100, 0}, {31, 16}, {32, 16},
	} {
		c0, i0 := calls.Value(), inline.Value()
		predicted := RunsInline(tc.n, tc.grain)
		counted := 0.0
		if predicted && tc.n > 0 {
			counted = 1
		}
		if calls.Value()-c0 != counted || inline.Value()-i0 != counted {
			t.Errorf("RunsInline(%d,%d)=%v counted %v calls / %v inline, want %v of each",
				tc.n, tc.grain, predicted, calls.Value()-c0, inline.Value()-i0, counted)
		}
		var spans int32
		c0, i0 = calls.Value(), inline.Value()
		ParallelFor(tc.n, tc.grain, func(lo, hi int) { atomic.AddInt32(&spans, 1) })
		if tc.n > 0 && predicted != (spans == 1) {
			t.Errorf("RunsInline(%d,%d)=%v but ParallelFor ran %d spans", tc.n, tc.grain, predicted, spans)
		}
		if tc.n > 0 && (calls.Value()-c0 != 1 || inline.Value()-i0 != counted) {
			t.Errorf("ParallelFor(%d,%d) counted %v calls / %v inline, want 1 / %v",
				tc.n, tc.grain, calls.Value()-c0, inline.Value()-i0, counted)
		}
	}

	// Gemm's small-range shortcut is still a counted ParallelFor call.
	c0, i0 := calls.Value(), inline.Value()
	a, b, c := make([]float64, 4), make([]float64, 4), make([]float64, 4)
	Gemm(2, 2, 2, 1, a, 2, b, 2, c, 2)
	if calls.Value()-c0 != 1 || inline.Value()-i0 != 1 {
		t.Errorf("2×2 Gemm counted %v calls / %v inline, want 1 / 1", calls.Value()-c0, inline.Value()-i0)
	}
}
