package kernel

// The amd64 kernels are SSE2 assembly (kernel_amd64.s); see the package
// comment. Each lane performs exactly the scalar operation of the Go loop
// it replaces (one MULPD, then one ADDPD; never a fused multiply-add). The
// wrappers check every index the assembly touches, so a bad call panics
// as the Go loop would instead of reading or writing foreign memory.

// Axpy computes y[i] += alpha·x[i] element-wise over min(len(x), len(y))
// entries. Each element is updated independently (one multiply, one add),
// so the result is bit-identical to the plain loop regardless of
// vector width — this is the fused row-AXPY of the IMe fundamental
// formula. x and y may be the same slice but must not otherwise overlap.
func Axpy(alpha float64, x, y []float64) {
	if len(x) > len(y) {
		x = x[:len(y)]
	}
	axpySSE2(alpha, x, y)
}

// MulAdd computes y[i] += a[i]·b[i] element-wise over min(len(y),
// len(a), len(b)) entries: one multiply, then one add, so the result is
// bit-identical to the plain loop regardless of vector width — this is
// one diagonal of the sparse solver's banded SpMV. y must not overlap a
// or b.
func MulAdd(y, a, b []float64) {
	n := min(len(y), len(a), len(b))
	mulAddSSE2(y[:n], a[:n], b[:n])
}

// micro4x4 accumulates the 4×4 tile C[i:i+4, j:j+4] += alpha·A[i:i+4, k0:k1]·B[k0:k1, j:j+4]
// in eight two-lane accumulators. The rows the assembly reads of A and B
// and writes of C are evenly spaced, so checking the first and the last
// of each covers every element it touches.
func micro4x4(k0, k1 int, alpha float64, a []float64, lda, i int, b []float64, ldb, j int, c []float64, ldc int) {
	_ = a[i*lda+k0 : i*lda+k1]
	_ = a[(i+3)*lda+k0 : (i+3)*lda+k1]
	var bk []float64
	if k1 > k0 {
		_ = b[k0*ldb+j : k0*ldb+j+4]
		_ = b[(k1-1)*ldb+j : (k1-1)*ldb+j+4]
		bk = b[k0*ldb+j:]
	}
	ci := i*ldc + j
	_ = c[ci : ci+4]
	_ = c[ci+3*ldc : ci+3*ldc+4]
	micro4x4SSE2(k1-k0, alpha, a[i*lda+k0:], lda, bk, ldb, c[ci:], ldc)
}

// axpySSE2 is Axpy over len(x) ≤ len(y) elements.
//
//go:noescape
func axpySSE2(alpha float64, x, y []float64)

// mulAddSSE2 is MulAdd over len(y) = len(a) = len(b) elements.
//
//go:noescape
func mulAddSSE2(y, a, b []float64)

// micro4x4SSE2 is micro4x4 over kn ≥ 0 steps of k, with a, b and c
// starting at the tile's first element of A, B and C.
//
//go:noescape
func micro4x4SSE2(kn int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
