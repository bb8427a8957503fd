package kernel

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestGemmMatchesScalar checks the blocked GEMM against the
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

// sameBits reports whether got is want bit for bit, any NaN matching any
// NaN (the payload of a NaN is not part of the contract).
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// specials are the operands on which a vector kernel could part from the
// scalar loop: signed zeros, infinities, NaN, subnormals, and magnitudes
// whose products (or sums) overflow.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -1e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -3e200,
}

// mixedSlice fills n entries, about a third of them specials.
func mixedSlice(rng *rand.Rand, n int) []float64 {
	s := randSlice(rng, n)
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// signedUnits fills n entries from {+0, −0, +1, −1}: sums of zero
// products are where a kernel that starts or combines its accumulators
// differently shows, in the sign of a zero.
func signedUnits(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = specials[rng.Intn(4)]
	}
	return s
}

// TestGemmSinglePanelBitIdentical: for k ≤ kc the blocked kernel
// accumulates every C element in the same ascending-k order as the scalar
// reference and applies alpha the same way, so every result — 4×4 tiles,
// leftover rows and the narrow column strip alike — is bit-identical.
// Leading dimensions wider than the logical width put each tile row at a
// different offset; the padding around C must stay untouched.
func TestGemmSinglePanelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3, kc - 1, kc} {
		for _, sh := range []struct{ m, n int }{{16, 16}, {9, 11}} {
			m, n := sh.m, sh.n
			lda, ldb, ldc := k+3, n+5, n+7
			for _, fill := range []func(*rand.Rand, int) []float64{randSlice, mixedSlice, signedUnits} {
				a := fill(rng, m*lda)
				b := fill(rng, k*ldb)
				got := fill(rng, m*ldc)
				want := append([]float64(nil), got...)
				alpha := -1.0
				if k%2 == 0 {
					alpha = rng.NormFloat64()
				}
				Gemm(m, n, k, alpha, a, lda, b, ldb, got, ldc)
				GemmScalar(m, n, k, alpha, a, lda, b, ldb, want, ldc)
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: C[%d] = %x, scalar %x (not bit-identical)",
							m, n, k, lda, ldb, ldc, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestAxpyBitIdentical holds Axpy to the plain loop y[i] += alpha·x[i] bit
// for bit: every length up to 67 (each unrolled body and every tail), at
// offsets 0–3 into the backing arrays (so unaligned for any vector width),
// over signed zeros, infinities, NaN, subnormals and overflowing products.
// Nothing outside y's window may change, and x is never written.
func TestAxpyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const pad = 5
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, alpha := range []float64{0, math.Copysign(0, -1), 1, -1, 4 * rng.NormFloat64()} {
				// x runs one past y now and then: Axpy covers min(len(x), len(y)).
				extra := rng.Intn(2)
				xbuf := mixedSlice(rng, off+n+extra+pad)
				ybuf := mixedSlice(rng, off+n+pad)
				x := xbuf[off : off+n+extra]
				y := ybuf[3-off : 3-off+n]
				xWas := append([]float64(nil), xbuf...)
				want := append([]float64(nil), ybuf...)
				for i := range y {
					want[3-off+i] += alpha * x[i]
				}
				Axpy(alpha, x, y)
				for i := range ybuf {
					if !sameBits(ybuf[i], want[i]) {
						t.Fatalf("n=%d off=%d alpha=%g: y buffer[%d] = %x, reference %x",
							n, off, alpha, i, math.Float64bits(ybuf[i]), math.Float64bits(want[i]))
					}
				}
				for i := range xbuf {
					if !sameBits(xbuf[i], xWas[i]) {
						t.Fatalf("n=%d off=%d: x buffer[%d] was written", n, off, i)
					}
				}
			}
		}
	}
}

// TestMulAddBitIdentical holds MulAdd to the plain loop y[i] += a[i]·b[i]
// bit for bit, in the style of TestAxpyBitIdentical: every length up to
// 67, at offsets 0–3 into the backing arrays, over signed zeros,
// infinities, NaN, subnormals and overflowing products. Either operand
// may run one past y (MulAdd covers the shortest of the three). Nothing
// outside y's window may change, and a and b are never written.
func TestMulAddBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const pad = 5
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, fill := range []func(*rand.Rand, int) []float64{mixedSlice, signedUnits} {
				abuf := fill(rng, off+n+1+pad)
				bbuf := fill(rng, 2*off+n+1+pad)
				ybuf := fill(rng, off+n+pad)
				a := abuf[off : off+n+rng.Intn(2)]
				b := bbuf[2*off : 2*off+n+rng.Intn(2)]
				y := ybuf[3-off : 3-off+n]
				aWas, bWas := append([]float64(nil), abuf...), append([]float64(nil), bbuf...)
				want := append([]float64(nil), ybuf...)
				for i := range y {
					want[3-off+i] += a[i] * b[i]
				}
				MulAdd(y, a, b)
				for i := range ybuf {
					if !sameBits(ybuf[i], want[i]) {
						t.Fatalf("n=%d off=%d: y buffer[%d] = %x, reference %x",
							n, off, i, math.Float64bits(ybuf[i]), math.Float64bits(want[i]))
					}
				}
				for i := range abuf {
					if !sameBits(abuf[i], aWas[i]) {
						t.Fatalf("n=%d off=%d: a buffer[%d] was written", n, off, i)
					}
				}
				for i := range bbuf {
					if !sameBits(bbuf[i], bWas[i]) {
						t.Fatalf("n=%d off=%d: b buffer[%d] was written", n, off, i)
					}
				}
			}
		}
	}
}

// TestKernelsAllocateNothing: Axpy, MulAdd and Gemm touch only their
// operands, from a small Gemm up to one the size of a kernel-dense
// trailing update. The engine's allocation budgets ride on the solvers'
// hot loops allocating nothing per call.
func TestKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := randSlice(rng, 100), randSlice(rng, 100)
	if got := testing.AllocsPerRun(100, func() { Axpy(0.5, x, y) }); got != 0 {
		t.Errorf("Axpy: %v allocations per call, want 0", got)
	}
	z := randSlice(rng, 100)
	if got := testing.AllocsPerRun(100, func() { MulAdd(z, x, y) }); got != 0 {
		t.Errorf("MulAdd: %v allocations per call, want 0", got)
	}
	for _, sh := range []struct{ m, n, k int }{{12, 10, 7}, {256, 256, 64}} {
		m, n, k := sh.m, sh.n, sh.k
		a, b, c := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
		// One call at the test's GOMAXPROCS first: AllocsPerRun runs at
		// GOMAXPROCS 1, where work split across cores would not show.
		Gemm(m, n, k, -1, a, k, b, n, c, n)
		if got := testing.AllocsPerRun(20, func() { Gemm(m, n, k, -1, a, k, b, n, c, n) }); got != 0 {
			t.Errorf("%d×%d×%d Gemm: %v allocations per call, want 0", m, n, k, got)
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

// TestGemmConcurrentCallers runs many GEMMs on shared read-only operands
// concurrently, as simulated MPI ranks do, and checks each result — this
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
