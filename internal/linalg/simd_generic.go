//go:build !amd64

package linalg

// haveAVX2 gates the assembly micro-kernel; always false off amd64.
const haveAVX2 = false

// microKernel runs one packed 2×8 register tile (see gemm_blocked.go).
func microKernel(kc int, ap, bp []complex128, acc *[gemmMR * gemmNR]complex128) {
	microKernelGo(kc, ap, bp, acc)
}

// vecSubMul computes dst[j] -= l*src[j].
func vecSubMul(dst, src []complex128, l complex128) { vecSubMulGo(dst, src, l) }

// vecScale computes dst[j] *= s.
func vecScale(dst []complex128, s complex128) { vecScaleGo(dst, s) }

// VecAXPY computes dst[j] += s*src[j] for j < len(src).
func VecAXPY(dst []complex128, s complex128, src []complex128) { axpyGo(dst, s, src) }

// gemmDirect is never reached off amd64 (haveAVX2 is false); the stripe
// reference computes the same bits.
func gemmDirect(alpha complex128, a, b *Matrix, beta complex128, c *Matrix) {
	gemmStripe(alpha, a, b, beta, c, 0, c.Rows)
}
