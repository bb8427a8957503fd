#include "textflag.h"

// SSE2 kernels. Every product is a MULPD (or MULSD) and every sum an
// ADDPD (or ADDSD) of that product onto the running value, in the order
// the Go loops in kernel_generic.go perform them: no fused multiply-add,
// no reassociation. MOVUPD throughout: float64 slices are only 8-byte
// aligned.

// func axpySSE2(alpha float64, x, y []float64)
TEXT ·axpySSE2(SB), NOSPLIT, $0-56
	MOVSD    alpha+0(FP), X0
	UNPCKLPD X0, X0              // X0 = {alpha, alpha}
	MOVQ     x_base+8(FP), SI
	MOVQ     x_len+16(FP), CX
	MOVQ     y_base+32(FP), DI
	MOVQ     CX, BX
	SHRQ     $3, BX              // BX = blocks of eight
	JZ       pairs

eight:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD (DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	ADDPD  X1, X5
	ADDPD  X2, X6
	ADDPD  X3, X7
	ADDPD  X4, X8
	MOVUPD X5, (DI)
	MOVUPD X6, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    eight

pairs:
	ANDQ $7, CX                  // CX = elements left, 0–7
	CMPQ CX, $2
	JLT  single

pair:
	MOVUPD (SI), X1
	MULPD  X0, X1
	MOVUPD (DI), X5
	ADDPD  X1, X5
	MOVUPD X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	CMPQ   CX, $2
	JGE    pair

single:
	TESTQ CX, CX
	JZ    done
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X5
	ADDSD X1, X5
	MOVSD X5, (DI)

done:
	RET

// func mulAddSSE2(y, a, b []float64)
TEXT ·mulAddSSE2(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ CX, BX
	SHRQ $3, BX                  // BX = blocks of eight
	JZ   pairs

eight:
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	MOVUPD 32(SI), X2
	MOVUPD 48(SI), X3
	MOVUPD (DX), X4
	MOVUPD 16(DX), X5
	MOVUPD 32(DX), X6
	MOVUPD 48(DX), X7
	MULPD  X4, X0
	MULPD  X5, X1
	MULPD  X6, X2
	MULPD  X7, X3
	MOVUPD (DI), X8
	MOVUPD 16(DI), X9
	MOVUPD 32(DI), X10
	MOVUPD 48(DI), X11
	ADDPD  X0, X8
	ADDPD  X1, X9
	ADDPD  X2, X10
	ADDPD  X3, X11
	MOVUPD X8, (DI)
	MOVUPD X9, 16(DI)
	MOVUPD X10, 32(DI)
	MOVUPD X11, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DX
	ADDQ   $64, DI
	DECQ   BX
	JNZ    eight

pairs:
	ANDQ $7, CX                  // CX = elements left, 0–7
	CMPQ CX, $2
	JLT  single

pair:
	MOVUPD (SI), X0
	MOVUPD (DX), X4
	MULPD  X4, X0
	MOVUPD (DI), X8
	ADDPD  X0, X8
	MOVUPD X8, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	SUBQ   $2, CX
	CMPQ   CX, $2
	JGE    pair

single:
	TESTQ CX, CX
	JZ    done
	MOVSD (SI), X0
	MOVSD (DX), X4
	MULSD X4, X0
	MOVSD (DI), X8
	ADDSD X0, X8
	MOVSD X8, (DI)

done:
	RET

// func micro4x4SSE2(kn int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
//
// Accumulators: X0,X1 = row 0's {c00,c01},{c02,c03}; X2,X3 row 1; X4,X5
// row 2; X6,X7 row 3. Per k: X8,X9 = B[k][j:j+4], X10 = {a,a} of one row.
TEXT ·micro4x4SSE2(SB), NOSPLIT, $0-112
	MOVQ  kn+0(FP), CX
	MOVQ  a_base+16(FP), SI
	MOVQ  lda+40(FP), R8
	SHLQ  $3, R8                 // R8 = lda in bytes
	LEAQ  (R8)(R8*2), R11        // R11 = 3·lda in bytes
	MOVQ  b_base+48(FP), DI
	MOVQ  ldb+72(FP), DX
	SHLQ  $3, DX                 // DX = ldb in bytes
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ    store

loop:
	MOVUPD   (DI), X8
	MOVUPD   16(DI), X9

	MOVSD    (SI), X10
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X0
	ADDPD    X11, X1

	MOVSD    (SI)(R8*1), X12
	UNPCKLPD X12, X12
	MOVAPD   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X2
	ADDPD    X13, X3

	MOVSD    (SI)(R8*2), X10
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X4
	ADDPD    X11, X5

	MOVSD    (SI)(R11*1), X12
	UNPCKLPD X12, X12
	MOVAPD   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X6
	ADDPD    X13, X7

	ADDQ $8, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  loop

store:
	MOVSD    alpha+8(FP), X8
	UNPCKLPD X8, X8              // X8 = {alpha, alpha}
	MOVQ     c_base+80(FP), DI
	MOVQ     ldc+104(FP), DX
	SHLQ     $3, DX              // DX = ldc in bytes

	// C[r][j:j+4] += alpha·acc, one row after another.
	MULPD  X8, X0
	MULPD  X8, X1
	MOVUPD (DI), X10
	MOVUPD 16(DI), X11
	ADDPD  X0, X10
	ADDPD  X1, X11
	MOVUPD X10, (DI)
	MOVUPD X11, 16(DI)
	ADDQ   DX, DI

	MULPD  X8, X2
	MULPD  X8, X3
	MOVUPD (DI), X10
	MOVUPD 16(DI), X11
	ADDPD  X2, X10
	ADDPD  X3, X11
	MOVUPD X10, (DI)
	MOVUPD X11, 16(DI)
	ADDQ   DX, DI

	MULPD  X8, X4
	MULPD  X8, X5
	MOVUPD (DI), X10
	MOVUPD 16(DI), X11
	ADDPD  X4, X10
	ADDPD  X5, X11
	MOVUPD X10, (DI)
	MOVUPD X11, 16(DI)
	ADDQ   DX, DI

	MULPD  X8, X6
	MULPD  X8, X7
	MOVUPD (DI), X10
	MOVUPD 16(DI), X11
	ADDPD  X6, X10
	ADDPD  X7, X11
	MOVUPD X10, (DI)
	MOVUPD X11, 16(DI)
	RET
