package kernel

// Blocking parameters. The micro-kernel computes a 4×4 register tile; the
// k dimension is processed in panels of kc so the accumulating tile stays
// in registers while the A block (mc×kc) stays L2-resident and the 4-wide
// B panel (kc×4, 8 KiB) stays L1-resident across an entire block of rows.
const (
	mr = 4   // micro-tile rows
	nr = 4   // micro-tile cols
	kc = 256 // k panel depth
	mc = 128 // row block height kept hot per k panel
)

// gemmGrain is the minimum number of C rows per worker span; below it the
// fan-out overhead outweighs the arithmetic.
const gemmGrain = 16

// Gemm computes C += alpha·A·B with row-major strided operands: A is m×k
// with leading dimension lda, B is k×n with ldb, C is m×n with ldc. Rows
// fan out across the process-wide worker pool; each C element is written
// by exactly one worker, so the call is race-free. Within one k panel the
// products are accumulated in ascending k order.
func Gemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 || alpha == 0 {
		return
	}
	grain := gemmGrain
	if n < nr { // narrow updates parallelise poorly
		grain = 4 * gemmGrain
	}
	if RunsInline(m, grain) {
		gemmSpan(0, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	ParallelFor(m, grain, func(lo, hi int) {
		gemmSpan(lo, hi, n, k, alpha, a, lda, b, ldb, c, ldc)
	})
}

// gemmSpan runs the blocked update for C rows [rlo,rhi).
func gemmSpan(rlo, rhi, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for k0 := 0; k0 < k; k0 += kc {
		k1 := k0 + kc
		if k1 > k {
			k1 = k
		}
		for i0 := rlo; i0 < rhi; i0 += mc {
			i1 := i0 + mc
			if i1 > rhi {
				i1 = rhi
			}
			for j0 := 0; j0 < n; j0 += nr {
				if j0+nr <= n {
					i := i0
					for ; i+mr <= i1; i += mr {
						micro4x4(k0, k1, alpha, a, lda, i, b, ldb, j0, c, ldc)
					}
					for ; i < i1; i++ {
						micro1x4(k0, k1, alpha, a, lda, i, b, ldb, j0, c, ldc)
					}
				} else {
					gemmTail(i0, i1, j0, n, k0, k1, alpha, a, lda, b, ldb, c, ldc)
				}
			}
		}
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

// micro1x4 handles a single leftover row against a full-width B tile.
func micro1x4(k0, k1 int, alpha float64, a []float64, lda, i int, b []float64, ldb, j int, c []float64, ldc int) {
	arow := a[i*lda+k0 : i*lda+k1]
	var c0, c1, c2, c3 float64
	bi := k0*ldb + j
	for kk := range arow {
		brow := b[bi : bi+4 : bi+4]
		av := arow[kk]
		c0 += av * brow[0]
		c1 += av * brow[1]
		c2 += av * brow[2]
		c3 += av * brow[3]
		bi += ldb
	}
	crow := c[i*ldc+j : i*ldc+j+4 : i*ldc+j+4]
	crow[0] += alpha * c0
	crow[1] += alpha * c1
	crow[2] += alpha * c2
	crow[3] += alpha * c3
}

// gemmTail covers the narrow rightmost column strip with plain dots.
func gemmTail(i0, i1, j0, j1, k0, k1 int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := i0; i < i1; i++ {
		arow := a[i*lda+k0 : i*lda+k1]
		for j := j0; j < j1; j++ {
			var s float64
			bi := k0*ldb + j
			for kk := range arow {
				s += arow[kk] * b[bi]
				bi += ldb
			}
			c[i*ldc+j] += alpha * s
		}
	}
}

// GemmScalar is the naive triple-loop reference (C += alpha·A·B, ascending
// k accumulation). It is what the seed solvers effectively ran and is kept
// as the golden reference for equivalence tests and speedup benchmarks.
func GemmScalar(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a[i*lda+kk] * b[kk*ldb+j]
			}
			c[i*ldc+j] += alpha * s
		}
	}
}

// MatVec computes y = A·x for row-major A (m×n, leading dimension lda),
// fanning rows across the pool. Each row's dot is accumulated in strictly
// ascending order, so every y[i] is bit-identical to the scalar loop —
// callers rely on that reproducibility.
func MatVec(m, n int, a []float64, lda int, x, y []float64) {
	ParallelFor(m, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = DotSerial(a[i*lda:i*lda+n], x)
		}
	})
}

// Dot returns Σ x[i]·y[i] with four partial accumulators (unrolled; the
// accumulation order differs from a plain ascending loop, so use DotSerial
// where bit-reproducibility against a scalar reference is required).
func Dot(x, y []float64) float64 {
	if len(x) > len(y) {
		x = x[:len(y)]
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xr := x[i : i+4 : i+4]
		yr := y[i : i+4 : i+4]
		s0 += xr[0] * yr[0]
		s1 += xr[1] * yr[1]
		s2 += xr[2] * yr[2]
		s3 += xr[3] * yr[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotSerial returns Σ x[i]·y[i] in strictly ascending order — the scalar
// reference accumulation.
func DotSerial(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

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

// Scale multiplies x by alpha in place, element-wise — the pivot-row
// normalisation of both solvers. Bit-identical to the plain loop.
func Scale(alpha float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xr := x[i : i+4 : i+4]
		xr[0] *= alpha
		xr[1] *= alpha
		xr[2] *= alpha
		xr[3] *= alpha
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// ScaledCopy sets dst[i] = alpha·src[i] over min(len(src), len(dst))
// entries — the diagonal-scaling copy of the solvers' table
// initialisation. Bit-identical to the plain loop.
func ScaledCopy(alpha float64, src, dst []float64) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	i := 0
	for ; i+4 <= len(src); i += 4 {
		sr := src[i : i+4 : i+4]
		dr := dst[i : i+4 : i+4]
		dr[0] = alpha * sr[0]
		dr[1] = alpha * sr[1]
		dr[2] = alpha * sr[2]
		dr[3] = alpha * sr[3]
	}
	for ; i < len(src); i++ {
		dst[i] = alpha * src[i]
	}
}
