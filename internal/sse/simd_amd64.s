//go:build amd64

#include "textflag.h"

// Packed AVX2 bodies of the DaCe stages (see dace.go). A ymm register
// holds two complex128 values. Every complex term a*b is formed as
//
//	bcast(ar)*b addsub bcast(ai)*swap(b) = (ar*br - ai*bi, ar*bi + ai*br)
//
// and added to its accumulator with a separate VADDPD: four independently
// rounded products, one subtract/add pair, one add, and no FMA — exactly
// the rounding of Go's scalar z += a*b on amd64. The weight tables hold
// each ω-weight as four copies of its real part followed by four copies
// of its imaginary part (64 bytes per weight, see weights.broadcast).

// CMUL forms into t the complex product of a broadcast factor (real part
// re, imaginary part im: registers or table rows) and the register pair
// x, swap(x).
#define CMUL(re, im, x, xs, t, u) \
	VMULPD re, x, t; \
	VMULPD im, xs, u; \
	VADDSUBPD u, t, t

// TERM adds the product w*x to the accumulator v.
#define TERM(re, im, x, xs, v) \
	CMUL(re, im, x, xs, Y13, Y14); \
	VADDPD Y13, v, v

// func stencilBothAVX2(v0, v1, v2, m0, m1, m2, p0, p1, p2 *complex128, n int, wm, wp *[9][8]float64)
//
// V_j[x] += wm_ij*m_i[x] then wp_ij*p_i[x] for i = 0, 1, 2, for x in
// [0, n), n even. The three V_j pairs stay in Y0-Y2 across all eighteen
// terms and are stored once.
TEXT ·stencilBothAVX2(SB), NOSPLIT, $0-96
	MOVQ v0+0(FP), AX
	MOVQ v1+8(FP), BX
	MOVQ v2+16(FP), CX
	MOVQ m0+24(FP), DX
	MOVQ m1+32(FP), SI
	MOVQ m2+40(FP), DI
	MOVQ p0+48(FP), R8
	MOVQ p1+56(FP), R9
	MOVQ p2+64(FP), R10
	MOVQ n+72(FP), R11
	MOVQ wm+80(FP), R12
	MOVQ wp+88(FP), R13
	SHRQ $1, R11
	JZ   bothDone

bothLoop:
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y1
	VMOVUPD (CX), Y2

	VMOVUPD   (DX), Y3
	VPERMILPD $0x5, Y3, Y4
	VMOVUPD   (R8), Y5
	VPERMILPD $0x5, Y5, Y6
	TERM(0(R12), 32(R12), Y3, Y4, Y0)
	TERM(0(R13), 32(R13), Y5, Y6, Y0)
	TERM(64(R12), 96(R12), Y3, Y4, Y1)
	TERM(64(R13), 96(R13), Y5, Y6, Y1)
	TERM(128(R12), 160(R12), Y3, Y4, Y2)
	TERM(128(R13), 160(R13), Y5, Y6, Y2)

	VMOVUPD   (SI), Y7
	VPERMILPD $0x5, Y7, Y8
	VMOVUPD   (R9), Y9
	VPERMILPD $0x5, Y9, Y10
	TERM(192(R12), 224(R12), Y7, Y8, Y0)
	TERM(192(R13), 224(R13), Y9, Y10, Y0)
	TERM(256(R12), 288(R12), Y7, Y8, Y1)
	TERM(256(R13), 288(R13), Y9, Y10, Y1)
	TERM(320(R12), 352(R12), Y7, Y8, Y2)
	TERM(320(R13), 352(R13), Y9, Y10, Y2)

	VMOVUPD   (DI), Y3
	VPERMILPD $0x5, Y3, Y4
	VMOVUPD   (R10), Y5
	VPERMILPD $0x5, Y5, Y6
	TERM(384(R12), 416(R12), Y3, Y4, Y0)
	TERM(384(R13), 416(R13), Y5, Y6, Y0)
	TERM(448(R12), 480(R12), Y3, Y4, Y1)
	TERM(448(R13), 480(R13), Y5, Y6, Y1)
	TERM(512(R12), 544(R12), Y3, Y4, Y2)
	TERM(512(R13), 544(R13), Y5, Y6, Y2)

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (BX)
	VMOVUPD Y2, (CX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    R11
	JNZ     bothLoop

bothDone:
	VZEROUPPER
	RET

// func stencilOneAVX2(v0, v1, v2, q0, q1, q2 *complex128, n int, w *[9][8]float64)
//
// V_j[x] += w_ij*q_i[x] for i = 0, 1, 2, for x in [0, n), n even.
TEXT ·stencilOneAVX2(SB), NOSPLIT, $0-64
	MOVQ v0+0(FP), AX
	MOVQ v1+8(FP), BX
	MOVQ v2+16(FP), CX
	MOVQ q0+24(FP), DX
	MOVQ q1+32(FP), SI
	MOVQ q2+40(FP), DI
	MOVQ n+48(FP), R11
	MOVQ w+56(FP), R12
	SHRQ $1, R11
	JZ   oneDone

oneLoop:
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y1
	VMOVUPD (CX), Y2

	VMOVUPD   (DX), Y3
	VPERMILPD $0x5, Y3, Y4
	VMOVUPD   (SI), Y5
	VPERMILPD $0x5, Y5, Y6
	VMOVUPD   (DI), Y7
	VPERMILPD $0x5, Y7, Y8
	TERM(0(R12), 32(R12), Y3, Y4, Y0)
	TERM(64(R12), 96(R12), Y3, Y4, Y1)
	TERM(128(R12), 160(R12), Y3, Y4, Y2)
	TERM(192(R12), 224(R12), Y5, Y6, Y0)
	TERM(256(R12), 288(R12), Y5, Y6, Y1)
	TERM(320(R12), 352(R12), Y5, Y6, Y2)
	TERM(384(R12), 416(R12), Y7, Y8, Y0)
	TERM(448(R12), 480(R12), Y7, Y8, Y1)
	TERM(512(R12), 544(R12), Y7, Y8, Y2)

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (BX)
	VMOVUPD Y2, (CX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    R11
	JNZ     oneLoop

oneDone:
	VZEROUPPER
	RET

// func fixedA2AVX2(dst, a, src *complex128, stride, count int)
//
// Norb = 2 fixed-A products: dst[t] = A·src[t] for count 2×2 blocks, the
// source blocks stride complex elements apart, the destination contiguous.
// A row of the product is 0 + a_r0*B_0 + a_r1*B_1 over the B row pair,
// so each element sums its p terms in ascending order from +0.
//
// Register plan:
//	Y8-Y15  a00, a01, a10, a11 broadcast (real, imaginary)
//	Y0-Y3   B rows 0, 1 and their swaps
//	Y4, Y5  destination rows, Y6, Y7 products
TEXT ·fixedA2AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ src+16(FP), SI
	MOVQ stride+24(FP), DX
	MOVQ count+32(FP), CX
	SHLQ $4, DX
	TESTQ CX, CX
	JZ   fixedDone
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

fixedLoop:
	VMOVUPD   (SI), Y0
	VMOVUPD   32(SI), Y1
	VPERMILPD $0x5, Y0, Y2
	VPERMILPD $0x5, Y1, Y3
	VXORPD    Y4, Y4, Y4
	VXORPD    Y5, Y5, Y5
	CMUL(Y8, Y9, Y0, Y2, Y6, Y7)
	VADDPD    Y6, Y4, Y4
	CMUL(Y12, Y13, Y0, Y2, Y6, Y7)
	VADDPD    Y6, Y5, Y5
	CMUL(Y10, Y11, Y1, Y3, Y6, Y7)
	VADDPD    Y6, Y4, Y4
	CMUL(Y14, Y15, Y1, Y3, Y6, Y7)
	VADDPD    Y6, Y5, Y5
	VMOVUPD   Y4, (DI)
	VMOVUPD   Y5, 32(DI)
	ADDQ      DX, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       fixedLoop

fixedDone:
	VZEROUPPER
	RET

// PACKY packs element k of Y_j for two energies — the blocks at 0 and hi
// bytes from r — into one register, stored with its swap at off+k*64 and
// off+k*64+32 of the frame. hi = 64 packs an energy pair; hi = 0 puts a
// single energy in both lanes.
#define PACKY(r, hi, off) \
	VMOVUPD    (r), Y0; \
	VMOVUPD    32(r), Y1; \
	VPERM2F128 $0x20, hi(r), Y0, Y2; \
	VPERM2F128 $0x31, hi(r), Y0, Y3; \
	VPERM2F128 $0x20, hi+32(r), Y1, Y4; \
	VPERM2F128 $0x31, hi+32(r), Y1, Y5; \
	VPERMILPD  $0x5, Y2, Y6; \
	VPERMILPD  $0x5, Y3, Y7; \
	VPERMILPD  $0x5, Y4, Y8; \
	VPERMILPD  $0x5, Y5, Y9; \
	VMOVUPD    Y2, off(SP); \
	VMOVUPD    Y6, off+32(SP); \
	VMOVUPD    Y3, off+64(SP); \
	VMOVUPD    Y7, off+96(SP); \
	VMOVUPD    Y4, off+128(SP); \
	VMOVUPD    Y8, off+160(SP); \
	VMOVUPD    Y5, off+192(SP); \
	VMOVUPD    Y9, off+224(SP)

// PACKX packs element k of X_i for the same two energies as duplicated
// real and imaginary parts: Y0/Y1 element 0, Y2/Y3 element 1, Y4/Y5
// element 2, Y6/Y7 element 3.
#define PACKX(r, hi) \
	VMOVUPD    (r), Y8; \
	VMOVUPD    32(r), Y9; \
	VPERM2F128 $0x20, hi(r), Y8, Y10; \
	VPERM2F128 $0x31, hi(r), Y8, Y11; \
	VPERM2F128 $0x20, hi+32(r), Y9, Y12; \
	VPERM2F128 $0x31, hi+32(r), Y9, Y13; \
	VMOVDDUP   Y10, Y0; \
	VPERMILPD  $0xf, Y10, Y1; \
	VMOVDDUP   Y11, Y2; \
	VPERMILPD  $0xf, Y11, Y3; \
	VMOVDDUP   Y12, Y4; \
	VPERMILPD  $0xf, Y12, Y5; \
	VMOVDDUP   Y13, Y6; \
	VPERMILPD  $0xf, Y13, Y7

// GTERM adds x_k*y to the trace pair t, y being the packed Y element at
// frame offset off (its swap at off+32).
#define GTERM(xr, xi, off, t) \
	VMULPD    off(SP), xr, Y11; \
	VMULPD    off+32(SP), xi, Y12; \
	VADDSUBPD Y12, Y11, Y11; \
	VADDPD    Y11, t, t

// TRACE builds the trace pair tr(X_i·Y_j) for both energies in t: the
// (r, c) order x0*y0, x1*y2, x2*y1, x3*y3 from +0, Y_j packed at off.
#define TRACE(off, t) \
	VXORPD t, t, t; \
	GTERM(Y0, Y1, off, t); \
	GTERM(Y2, Y3, off+128, t); \
	GTERM(Y4, Y5, off+64, t); \
	GTERM(Y6, Y7, off+192, t)

// SADD2 adds the lower then the upper energy of the trace pair t to the
// S element at off(AX); SADD1 adds the lower energy only.
#define SADD2(t, xt, off) \
	VMOVUPD      off(AX), X14; \
	VADDPD       xt, X14, X14; \
	VEXTRACTF128 $1, t, X13; \
	VADDPD       X13, X14, X14; \
	VMOVUPD      X14, off(AX)

#define SADD1(t, xt, off) \
	VMOVUPD off(AX), X14; \
	VADDPD  xt, X14, X14; \
	VMOVUPD X14, off(AX)

// GRAMI adds tr(X_i·Y_j) for j = 0, 1, 2 to S_i0..S_i2 at off(AX), with
// sadd SADD2 for an energy pair or SADD1 for a single energy.
#define GRAMI(r, hi, off, sadd) \
	PACKX(r, hi); \
	TRACE(0, Y8); \
	TRACE(256, Y9); \
	TRACE(512, Y10); \
	sadd(Y8, X8, off); \
	sadd(Y9, X9, off+16); \
	sadd(Y10, X10, off+32)

// func gram2AVX2(s *[9]complex128, x0, x1, x2, y0, y1, y2 *complex128, count int)
//
// Norb = 2 Gram pass: S_ij += tr(X_i(E)·Y_j(E)) over count consecutive
// 2×2 blocks, one energy pair per iteration with the two energies in the
// two lanes, then an odd last energy alone. Each trace starts from +0 and
// adds its terms in (r, c) order; the energies join S_ij in ascending
// order. The frame holds the packed Y_j (and swaps) of the current pair.
TEXT ·gram2AVX2(SB), $768-64
	MOVQ s+0(FP), AX
	MOVQ x0+8(FP), BX
	MOVQ x1+16(FP), CX
	MOVQ x2+24(FP), DX
	MOVQ y0+32(FP), SI
	MOVQ y1+40(FP), DI
	MOVQ y2+48(FP), R8
	MOVQ count+56(FP), R9
	SHRQ $1, R9
	JZ   gramLast

gramLoop:
	PACKY(SI, 64, 0)
	PACKY(DI, 64, 256)
	PACKY(R8, 64, 512)
	GRAMI(BX, 64, 0, SADD2)
	GRAMI(CX, 64, 48, SADD2)
	GRAMI(DX, 64, 96, SADD2)
	ADDQ $128, BX
	ADDQ $128, CX
	ADDQ $128, DX
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, R8
	DECQ R9
	JNZ  gramLoop

gramLast:
	MOVQ count+56(FP), R9
	ANDQ $1, R9
	JZ   gramDone
	PACKY(SI, 0, 0)
	PACKY(DI, 0, 256)
	PACKY(R8, 0, 512)
	GRAMI(BX, 0, 0, SADD1)
	GRAMI(CX, 0, 48, SADD1)
	GRAMI(DX, 0, 96, SADD1)

gramDone:
	VZEROUPPER
	RET

// ROWTERM adds a*B_k to the row accumulator Y0, a being the complex at
// off(SI) broadcast, B_k in Y(b) with its swap in Y(bs).
#define ROWTERM(off, b, bs) \
	VBROADCASTSD off(SI), Y2; \
	VBROADCASTSD off+8(SI), Y3; \
	CMUL(Y2, Y3, b, bs, Y4, Y5); \
	VADDPD       Y4, Y0, Y0

// ZEROSKIP jumps to skip when the complex at off(SI) is ±0 in both parts
// (Go's a == 0), so the row term is skipped exactly as mulAddSmall does.
#define ZEROSKIP(off, skip) \
	MOVQ off(SI), R8; \
	ORQ  off+8(SI), R8; \
	SHLQ $1, R8; \
	JZ   skip

// SCATTER adds s*Y0 (s broadcast in Y12, Y13) to the Σ row at off(DI).
#define SCATTER(off) \
	VPERMILPD $0x5, Y0, Y1; \
	CMUL(Y12, Y13, Y0, Y1, Y4, Y5); \
	VADDPD    off(DI), Y4, Y4; \
	VMOVUPD   Y4, off(DI)

// func fixedB2AVX2(dst *complex128, stride int, s complex128, v, b *complex128, count int)
//
// Norb = 2 stages ❸–❹ over one energy run: c = V[t]·B per block (ikj
// order from +0, zero v_ik skipped, as mulAddSmall), then
// dst[t] += s*c, the destination blocks stride complex elements apart.
//
// Register plan:
//	Y8-Y11   B rows 0, 1 and their swaps
//	Y12, Y13 s broadcast (real, imaginary)
//	Y0       product row, Y1-Y5 scratch
TEXT ·fixedB2AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), DX
	VBROADCASTSD s_real+16(FP), Y12
	VBROADCASTSD s_imag+24(FP), Y13
	MOVQ v+32(FP), SI
	MOVQ b+40(FP), AX
	MOVQ count+48(FP), CX
	SHLQ $4, DX
	TESTQ CX, CX
	JZ   fixedBDone
	VMOVUPD   (AX), Y8
	VPERMILPD $0x5, Y8, Y9
	VMOVUPD   32(AX), Y10
	VPERMILPD $0x5, Y10, Y11

fixedBLoop:
	VXORPD Y0, Y0, Y0
	ZEROSKIP(0, skip00)
	ROWTERM(0, Y8, Y9)
skip00:
	ZEROSKIP(16, skip01)
	ROWTERM(16, Y10, Y11)
skip01:
	SCATTER(0)
	VXORPD Y0, Y0, Y0
	ZEROSKIP(32, skip10)
	ROWTERM(32, Y8, Y9)
skip10:
	ZEROSKIP(48, skip11)
	ROWTERM(48, Y10, Y11)
skip11:
	SCATTER(32)
	ADDQ $64, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  fixedBLoop

fixedBDone:
	VZEROUPPER
	RET
