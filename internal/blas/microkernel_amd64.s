//go:build amd64

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func microKernel4x8AVX2(kc int, pa, pb, c *float64, ldc int)
//
// C[0:4, 0:8] += Aᵖ·Bᵖ on packed micro-panels, bitwise identical to the
// seed loop gemmSmallGo: multiplies and adds stay separate (no FMA —
// its single rounding would diverge from the scalar kernels), every C
// element accumulates its contributions in ascending k, and where the
// packed A value equals zero the blend keeps the old C lane instead of
// the new sum — exactly the scalar kernel's `a == 0` skip, signaling
// NaNs in C included. A NaN in A compares unequal to zero (EQ_OQ) and
// propagates, as in the Go kernels. Operand order copies the compiled
// seed loop — B the first source of the multiply, the product the
// first source of the add — so NaN payloads match it as well.
//
// Register plan: Y0..Y7 the 4×8 C accumulators (row r in Y(2r) cols
// 0..3 and Y(2r+1) cols 4..7), Y8/Y9 the current B row, Y10 the
// broadcast A value, Y11 its ==0 mask, Y12 products and sums, Y14 +0.
TEXT ·microKernel4x8AVX2(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8               // row stride in bytes
	LEAQ (DI)(R8*1), R9       // &C[1,0]
	LEAQ (R9)(R8*1), R10      // &C[2,0]
	LEAQ (R10)(R8*1), R11     // &C[3,0]

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

	VXORPD Y14, Y14, Y14      // +0.0 in every lane

kloop:
	VMOVUPD (BX), Y8          // B[p, 0:4]
	VMOVUPD 32(BX), Y9        // B[p, 4:8]

	VBROADCASTSD (SI), Y10    // A[0, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y10, Y8, Y12
	VADDPD    Y0, Y12, Y12
	VBLENDVPD Y11, Y0, Y12, Y0
	VMULPD    Y10, Y9, Y12
	VADDPD    Y1, Y12, Y12
	VBLENDVPD Y11, Y1, Y12, Y1

	VBROADCASTSD 8(SI), Y10   // A[1, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y10, Y8, Y12
	VADDPD    Y2, Y12, Y12
	VBLENDVPD Y11, Y2, Y12, Y2
	VMULPD    Y10, Y9, Y12
	VADDPD    Y3, Y12, Y12
	VBLENDVPD Y11, Y3, Y12, Y3

	VBROADCASTSD 16(SI), Y10  // A[2, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y10, Y8, Y12
	VADDPD    Y4, Y12, Y12
	VBLENDVPD Y11, Y4, Y12, Y4
	VMULPD    Y10, Y9, Y12
	VADDPD    Y5, Y12, Y12
	VBLENDVPD Y11, Y5, Y12, Y5

	VBROADCASTSD 24(SI), Y10  // A[3, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y10, Y8, Y12
	VADDPD    Y6, Y12, Y12
	VBLENDVPD Y11, Y6, Y12, Y6
	VMULPD    Y10, Y9, Y12
	VADDPD    Y7, Y12, Y12
	VBLENDVPD Y11, Y7, Y12, Y7

	ADDQ $32, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  kloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func gemmSmallAVX2(m, n, k int, alpha float64, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)
//
// C[0:m, 0:n] += α·A[0:m, 0:k]·B[0:k, 0:n], bitwise identical to
// gemmSmallGo: row i, then p ascending, then one branch per (i,p) that
// skips the row AXPY when α·A[i,p] == 0 (UCOMISD: an unordered NaN
// product falls through and propagates, as in the Go loop). The AXPY
// runs 8, then 4 lanes per step with separate VMULPD/VADDPD (never FMA)
// and finishes with a VMULSD/VADDSD scalar tail; every C element sees
// the same two roundings per contribution as the scalar loop. Rows
// narrower than one vector (n < 4) take the narrow loop instead: the
// same branch and scalar ops, with the 1–3 columns unrolled, which
// spares these many tiny calls the lane-count tests of the wide loop.
//
// Operand order copies the compiled Go loop so NaN payloads match too:
// α·A[i,p] has A as the first source, the product has B as the first
// source, and the sum has the product as the first source (x86 returns
// the first source's payload when both operands are NaN).
//
// Requires m ≥ 1, n ≥ 1 and k ≥ 1. Register plan: R8 rows left, R9 n,
// R10 n&^7, R11 n&^3, R12/R13 the B/A row strides in bytes; SI/DI the
// A/C rows, DX A[i,p], BX B[p,0], CX terms left, AX the column index;
// X13 α, X14 +0, Y0 the broadcast α·A[i,p], Y1/Y2 products.
TEXT ·gemmSmallAVX2(SB), NOSPLIT, $0-80
	MOVQ  m+0(FP), R8
	MOVQ  n+8(FP), R9
	VMOVSD alpha+24(FP), X13
	MOVQ  a+32(FP), SI
	MOVQ  lda+40(FP), R13
	SHLQ  $3, R13
	MOVQ  ldb+56(FP), R12
	SHLQ  $3, R12
	MOVQ  c+64(FP), DI
	MOVQ  R9, R10
	ANDQ  $-8, R10
	MOVQ  R9, R11
	ANDQ  $-4, R11
	VXORPD X14, X14, X14
	CMPQ   R9, $4
	JLT    narrow             // n < 4: the unrolled scalar loop below

row:
	MOVQ k+16(FP), CX
	MOVQ b+48(FP), BX
	MOVQ SI, DX

term:
	VMOVSD   (DX), X0
	VMULSD   X13, X0, X0      // α·A[i,p], A the first source
	VUCOMISD X14, X0
	JNE      axpy
	JPS      axpy
	JMP      next             // exactly zero: skip, as the Go loop does

axpy:
	VBROADCASTSD X0, Y0
	XORQ AX, AX
	CMPQ AX, R10
	JGE  quad

oct:
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VMULPD  Y0, Y1, Y1        // B·(α·A), B the first source
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1   // product + C, product the first source
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R10
	JLT     oct

quad:
	CMPQ    AX, R11
	JGE     tail
	VMOVUPD (BX)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ   AX, R9
	JGE    next
	VMOVSD (BX)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail

next:
	ADDQ $8, DX
	ADDQ R12, BX
	DECQ CX
	JNZ  term

	ADDQ R13, SI
	MOVQ ldc+72(FP), AX
	LEAQ (DI)(AX*8), DI
	DECQ R8
	JNZ  row

	VZEROUPPER
	RET

narrow:
	MOVQ k+16(FP), CX
	MOVQ b+48(FP), BX
	MOVQ SI, DX

nterm:
	VMOVSD   (DX), X0
	VMULSD   X13, X0, X0      // α·A[i,p], A the first source
	VUCOMISD X14, X0
	JNE      naxpy
	JPC      nnext            // exactly zero (ordered): skip; NaN falls through

naxpy:
	VMOVSD (BX), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	CMPQ   R9, $2
	JLT    nnext
	VMOVSD 8(BX), X1
	VMULSD X0, X1, X1
	VADDSD 8(DI), X1, X1
	VMOVSD X1, 8(DI)
	CMPQ   R9, $3
	JLT    nnext
	VMOVSD 16(BX), X1
	VMULSD X0, X1, X1
	VADDSD 16(DI), X1, X1
	VMOVSD X1, 16(DI)

nnext:
	ADDQ $8, DX
	ADDQ R12, BX
	DECQ CX
	JNZ  nterm

	ADDQ R13, SI
	MOVQ ldc+72(FP), AX
	LEAQ (DI)(AX*8), DI
	DECQ R8
	JNZ  narrow

	VZEROUPPER
	RET
