//go:build !amd64

package kernel

// The portable kernels: plain Go loops, for every GOARCH without an
// assembly version (kernel_amd64.s holds amd64's). Both compute the same
// bits; see the package comment.

// Axpy computes y[i] += alpha·x[i] element-wise over min(len(x), len(y))
// entries. Each element is updated independently (one multiply, one add),
// so the result is bit-identical to the plain loop regardless of
// unrolling — this is the fused row-AXPY of the IMe fundamental formula.
func Axpy(alpha float64, x, y []float64) {
	if len(x) > len(y) {
		x = x[:len(y)]
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xr := x[i : i+4 : i+4]
		yr := y[i : i+4 : i+4]
		yr[0] += alpha * xr[0]
		yr[1] += alpha * xr[1]
		yr[2] += alpha * xr[2]
		yr[3] += alpha * xr[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// MulAdd computes y[i] += a[i]·b[i] element-wise over min(len(y),
// len(a), len(b)) entries: one multiply, rounded on its own by the
// explicit conversion (which forbids a fused multiply-add), then one add —
// one diagonal of the sparse solver's banded SpMV. y must not overlap a
// or b.
func MulAdd(y, a, b []float64) {
	n := min(len(y), len(a), len(b))
	y, a, b = y[:n], a[:n], b[:n]
	for i := range y {
		y[i] += float64(a[i] * b[i])
	}
}

// micro4x4 accumulates the 4×4 tile C[i:i+4, j:j+4] += alpha·A[i:i+4, k0:k1]·B[k0:k1, j:j+4]
// in sixteen register accumulators.
func micro4x4(k0, k1 int, alpha float64, a []float64, lda, i int, b []float64, ldb, j int, c []float64, ldc int) {
	a0 := a[i*lda+k0 : i*lda+k1]
	a1 := a[(i+1)*lda+k0 : (i+1)*lda+k1]
	a2 := a[(i+2)*lda+k0 : (i+2)*lda+k1]
	a3 := a[(i+3)*lda+k0 : (i+3)*lda+k1]
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	bi := k0*ldb + j
	for kk := range a0 {
		brow := b[bi : bi+4 : bi+4]
		b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
		av := a0[kk]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[kk]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[kk]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[kk]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		bi += ldb
	}
	ci := i*ldc + j
	crow := c[ci : ci+4 : ci+4]
	crow[0] += alpha * c00
	crow[1] += alpha * c01
	crow[2] += alpha * c02
	crow[3] += alpha * c03
	ci += ldc
	crow = c[ci : ci+4 : ci+4]
	crow[0] += alpha * c10
	crow[1] += alpha * c11
	crow[2] += alpha * c12
	crow[3] += alpha * c13
	ci += ldc
	crow = c[ci : ci+4 : ci+4]
	crow[0] += alpha * c20
	crow[1] += alpha * c21
	crow[2] += alpha * c22
	crow[3] += alpha * c23
	ci += ldc
	crow = c[ci : ci+4 : ci+4]
	crow[0] += alpha * c30
	crow[1] += alpha * c31
	crow[2] += alpha * c32
	crow[3] += alpha * c33
}
