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

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func microKernelAVX2(kc int, ap, bp, acc *complex128)
//
// acc[r*8+s] += sum_k ap[k*2+r] * bp[k*8+s]  (complex128, r<2, s<8)
//
// One complex multiply-accumulate is computed exactly as Go lowers
// z += a*b on amd64 — four independently rounded multiplies, one
// add/sub pair, one final add — so the result is bit-identical to the
// pure-Go kernels. Deliberately NO FMA: a fused multiply-add would
// round differently and break the gemmStripe bit-identity contract.
//
// Per b-vector (2 complex in a ymm): v1 = bcast(ar)*b, v2 = bcast(ai)*
// swap(b), then VADDSUBPD gives (ar*br - ai*bi, ar*bi + ai*br) and
// VADDPD folds it into the accumulator.
//
// Register plan (exactly 16 ymm):
//	Y0-Y3  row-0 accumulators (8 complex)
//	Y4-Y7  row-1 accumulators
//	Y8-Y11 broadcast ar0, ai0, ar1, ai1 for the current k
//	Y12    current b vector, Y13 its pair-swapped copy
//	Y14-Y15 products
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7

loop:
	VBROADCASTSD (SI), Y8       // ar0
	VBROADCASTSD 8(SI), Y9      // ai0
	VBROADCASTSD 16(SI), Y10    // ar1
	VBROADCASTSD 24(SI), Y11    // ai1

	// b columns 0-1
	VMOVUPD   (DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y0, Y0
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y4, Y4

	// b columns 2-3
	VMOVUPD   32(DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y1, Y1
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y5, Y5

	// b columns 4-5
	VMOVUPD   64(DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y2, Y2
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y6, Y6

	// b columns 6-7
	VMOVUPD   96(DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y3, Y3
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y7, Y7

	ADDQ $32, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func vecSubMulAVX2(dst, src *complex128, n int, l complex128)
//
// dst[j] -= l*src[j] for j in [0, n), n even (odd tail handled by the Go
// wrapper). Same no-FMA rounding as the scalar expression.
TEXT ·vecSubMulAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD l_real+24(FP), Y8
	VBROADCASTSD l_imag+32(FP), Y9
	SHRQ $1, CX
	JZ   done2

loop2:
	VMOVUPD   (SI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VMOVUPD   (DX), Y0
	VSUBPD    Y14, Y0, Y0
	VMOVUPD   Y0, (DX)
	ADDQ      $32, SI
	ADDQ      $32, DX
	DECQ      CX
	JNZ       loop2

done2:
	VZEROUPPER
	RET

// func vecScaleAVX2(dst *complex128, n int, s complex128)
//
// dst[j] *= s for j in [0, n), n even (odd tail handled by the Go
// wrapper).
TEXT ·vecScaleAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	MOVQ n+8(FP), CX
	VBROADCASTSD s_real+16(FP), Y8
	VBROADCASTSD s_imag+24(FP), Y9
	SHRQ $1, CX
	JZ   done3

loop3:
	VMOVUPD   (DX), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VMOVUPD   Y14, (DX)
	ADDQ      $32, DX
	DECQ      CX
	JNZ       loop3

done3:
	VZEROUPPER
	RET

// func axpyAVX2(dst, src *complex128, n int, s complex128)
//
// dst[j] += s*src[j] for j in [0, n), n even (odd tail handled by the Go
// wrapper). The product is bcast(sr)*src addsub bcast(si)*swap(src), the
// rounding of Go's s*src; the add is a separate VADDPD (no FMA).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD s_real+24(FP), Y8
	VBROADCASTSD s_imag+32(FP), Y9
	SHRQ $1, CX
	JZ   done4

loop4:
	VMOVUPD   (SI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VMOVUPD   (DX), Y0
	VADDPD    Y14, Y0, Y0
	VMOVUPD   Y0, (DX)
	ADDQ      $32, SI
	ADDQ      $32, DX
	DECQ      CX
	JNZ       loop4

done4:
	VZEROUPPER
	RET

// Direct small-block GEMM: C = alpha·A·B + (load ? C : 0) with A (m×k),
// B (k×n) and C (m×n) dense row-major and read in place — no packed
// panels. The shape is the block products' only: m and k even, n a
// multiple of 4, all nonzero (the Go dispatcher routes no other shape
// here). Per row pair, alpha·A[i:i+2][0:k] is folded once into the frame
// (directMaxK complex per row) with the same no-FMA complex multiply as
// packA; then every 8-wide column strip of the pair, and a 4-wide tail,
// runs a register tile over k ascending, one accumulator per C element,
// each multiply-add rounded as Go's z += a*b (mul, mul, addsub, add).
// The Go wrapper applies a general beta to C first and passes load = 0
// for beta == 0, so C is never read then.
//
// Register plan: AX A row, R8 = k·16 (A row stride and the offset of
// the second folded row), DX C row, R9 = n·16 (B and C row stride),
// R10 = k, R13 rows left, R11 columns left, R12 C strip, R14 B strip, CX k
// counter, SI folded-A cursor, DI B cursor. Y0-Y7 accumulators (row 0
// in Y0-Y3, row 1 in Y4-Y7), Y8-Y11 broadcast a_r, a_i of both rows
// (alpha during the fold), Y12/Y13 the B vector and its pair swap,
// Y14/Y15 products.

// CMADD adds bcast(ar)·Y12 addsub bcast(ai)·Y13 into acc.
#define CMADD(ar, ai, acc) \
	VMULPD    Y12, ar, Y14; \
	VMULPD    Y13, ai, Y15; \
	VADDSUBPD Y15, Y14, Y14; \
	VADDPD    Y14, acc, acc

// LOADB loads B[p][j+off/16 : +2] into Y12 and its pair swap into Y13.
#define LOADB(off) \
	VMOVUPD   off(DI), Y12; \
	VPERMILPD $0x5, Y12, Y13

// BCAST2 broadcasts the real and imaginary parts of both folded rows at
// the cursor.
#define BCAST2 \
	VBROADCASTSD (SI), Y8; \
	VBROADCASTSD 8(SI), Y9; \
	VBROADCASTSD (SI)(R8*1), Y10; \
	VBROADCASTSD 8(SI)(R8*1), Y11

// FOLD leaves alpha·x in p1 for packed complex x (alpha broadcast in
// Y8/Y9), the rounding of Go's alpha*x.
#define FOLD(x, sw, p1, p2) \
	VPERMILPD $0x5, x, sw; \
	VMULPD    x, Y8, p1; \
	VMULPD    sw, Y9, p2; \
	VADDSUBPD p2, p1, p1

// KSTEP advances the k cursors: next folded A element, next B row.
#define KSTEP \
	ADDQ $16, SI; \
	ADDQ R9, DI; \
	DECQ CX

// STRIP starts a column strip: folded-A cursor at the frame, B cursor at
// the strip, k counter.
#define STRIP \
	LEAQ 0(SP), SI; \
	MOVQ R14, DI; \
	MOVQ R10, CX

// func gemmDirectAVX2(m, n, k int, a, b, c *complex128, alpha complex128, load int)
TEXT ·gemmDirectAVX2(SB), 0, $2048-72
	MOVQ m+0(FP), R13
	MOVQ n+8(FP), R9
	SHLQ $4, R9
	MOVQ k+16(FP), R10
	MOVQ R10, R8
	SHLQ $4, R8
	MOVQ a+24(FP), AX
	MOVQ c+40(FP), DX

pair:
	// Fold alpha·A rows i and i+1 into the frame, two complex per step.
	VBROADCASTSD alpha_real+48(FP), Y8
	VBROADCASTSD alpha_imag+56(FP), Y9
	MOVQ AX, SI
	LEAQ 0(SP), DI
	MOVQ R10, CX
	SHRQ $1, CX

pfold:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	FOLD(Y0, Y2, Y3, Y4)
	FOLD(Y1, Y5, Y6, Y7)
	VMOVUPD Y3, (DI)
	VMOVUPD Y6, (DI)(R8*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pfold

	MOVQ b+32(FP), R14
	MOVQ DX, R12
	MOVQ n+8(FP), R11

p8:
	CMPQ R11, $8
	JLT  p4
	CMPQ load+64(FP), $0
	JEQ  p8zero
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	VMOVUPD (R12)(R9*1), Y4
	VMOVUPD 32(R12)(R9*1), Y5
	VMOVUPD 64(R12)(R9*1), Y6
	VMOVUPD 96(R12)(R9*1), Y7
	JMP     p8go

p8zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

p8go:
	STRIP

p8k:
	BCAST2
	LOADB(0)
	CMADD(Y8, Y9, Y0)
	CMADD(Y10, Y11, Y4)
	LOADB(32)
	CMADD(Y8, Y9, Y1)
	CMADD(Y10, Y11, Y5)
	LOADB(64)
	CMADD(Y8, Y9, Y2)
	CMADD(Y10, Y11, Y6)
	LOADB(96)
	CMADD(Y8, Y9, Y3)
	CMADD(Y10, Y11, Y7)
	KSTEP
	JNZ p8k

	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	VMOVUPD Y4, (R12)(R9*1)
	VMOVUPD Y5, 32(R12)(R9*1)
	VMOVUPD Y6, 64(R12)(R9*1)
	VMOVUPD Y7, 96(R12)(R9*1)
	ADDQ    $128, R14
	ADDQ    $128, R12
	SUBQ    $8, R11
	JMP     p8

p4:
	TESTQ R11, R11
	JZ    pnext
	CMPQ  load+64(FP), $0
	JEQ   p4zero
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD (R12)(R9*1), Y4
	VMOVUPD 32(R12)(R9*1), Y5
	JMP     p4go

p4zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

p4go:
	STRIP

p4k:
	BCAST2
	LOADB(0)
	CMADD(Y8, Y9, Y0)
	CMADD(Y10, Y11, Y4)
	LOADB(32)
	CMADD(Y8, Y9, Y1)
	CMADD(Y10, Y11, Y5)
	KSTEP
	JNZ p4k

	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y4, (R12)(R9*1)
	VMOVUPD Y5, 32(R12)(R9*1)

pnext:
	LEAQ (AX)(R8*2), AX
	LEAQ (DX)(R9*2), DX
	SUBQ $2, R13
	JNZ  pair

	VZEROUPPER
	RET
