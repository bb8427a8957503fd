// Package kernel provides the cache-blocked float64 compute kernels the
// solvers' hot loops run on: a tiled rank-k update / GEMM, fused row-AXPY,
// the elementwise multiply-add of the sparse solver's banded SpMV, scaled
// copy, dot products and a matrix-vector product. Every kernel runs on
// the goroutine that calls it. The simulated MPI ranks are the
// parallelism: each rank is a goroutine, so ranks that run kernels at the
// same moment share the host's cores as co-scheduled processes on a node
// would, and the package keeps no state of its own.
//
// The kernels change *wall-clock* time only. Simulated virtual time and
// energy are charged analytically (ime.LevelFlops, scalapack flop counts)
// by the callers, so every figure and duration the reproduction reports is
// unaffected by how fast the real hardware executes the arithmetic — see
// DESIGN.md, "Real parallelism vs. virtual time".
//
// On amd64, Axpy, MulAdd and GEMM's 4×4 micro-kernel are SSE2 assembly
// (kernel_amd64.s); every other GOARCH runs the Go loops in
// kernel_generic.go. SSE2 rather than AVX2 because every amd64 CPU has
// it: one amd64 path, no CPU dispatch. Never an FMA: each lane does one
// multiply and then one add, the scalar loop's two roundings, so the
// assembly computes the Go loops' bits on every amd64 CPU (ROADMAP item
// 1). The same bit-identity tests hold both; the portable loops meet them
// wherever the compiler does not fuse a multiply-add on its own (386
// does not; arm64 does, ROADMAP item 1(b)). MulAdd's portable loop rounds
// each product explicitly, float64(a·b), which the Go spec says forbids
// fusion, so it meets them on arm64 too.
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

// Gemm computes C += alpha·A·B with row-major strided operands: A is m×k
// with leading dimension lda, B is k×n with ldb, C is m×n with ldc. Within
// one k panel the products are accumulated in ascending k order.
func Gemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 || alpha == 0 {
		return
	}
	for k0 := 0; k0 < k; k0 += kc {
		k1 := k0 + kc
		if k1 > k {
			k1 = k
		}
		for i0 := 0; i0 < m; i0 += mc {
			i1 := i0 + mc
			if i1 > m {
				i1 = m
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

// MatVec computes y = A·x for row-major A (m×n, leading dimension lda).
// Each row's dot is accumulated in strictly ascending order, so every y[i]
// is bit-identical to the scalar loop — callers rely on that
// reproducibility.
func MatVec(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		y[i] = DotSerial(a[i*lda:i*lda+n], x)
	}
}

// DotSerial returns Σ x[i]·y[i] in strictly ascending order — the scalar
// reference accumulation.
func DotSerial(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += float64(x[i] * y[i])
	}
	return s
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
