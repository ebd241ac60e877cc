//go:build amd64

package linalg

// AVX2 micro-kernel plumbing. Detection is done once at init: AVX2 in
// CPUID leaf 7, plus OSXSAVE/XGETBV confirming the OS preserves ymm
// state. No FMA requirement — the kernel deliberately avoids fused
// operations to keep bit-identity with the scalar reference.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

//go:noescape
func microKernelAVX2(kc int, ap, bp, acc *complex128)

var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// microKernel runs one packed 2×8 register tile (see gemm_blocked.go).
func microKernel(kc int, ap, bp []complex128, acc *[gemmMR * gemmNR]complex128) {
	if haveAVX2 {
		microKernelAVX2(kc, &ap[0], &bp[0], &acc[0])
		return
	}
	microKernelGo(kc, ap, bp, acc)
}

//go:noescape
func vecSubMulAVX2(dst, src *complex128, n int, l complex128)

//go:noescape
func vecScaleAVX2(dst *complex128, n int, s complex128)

//go:noescape
func axpyAVX2(dst, src *complex128, n int, s complex128)

// vecSubMul computes dst[j] -= l*src[j]. Rounding matches the scalar
// expression exactly (no FMA), so LU substitution stays bit-identical
// across the assembly and portable paths.
func vecSubMul(dst, src []complex128, l complex128) {
	n := len(dst)
	if haveAVX2 && n >= 2 {
		even := n &^ 1
		vecSubMulAVX2(&dst[0], &src[0], even, l)
		if even < n {
			dst[even] -= l * src[even]
		}
		return
	}
	vecSubMulGo(dst, src, l)
}

// vecScale computes dst[j] *= s with scalar-identical rounding.
func vecScale(dst []complex128, s complex128) {
	n := len(dst)
	if haveAVX2 && n >= 2 {
		even := n &^ 1
		vecScaleAVX2(&dst[0], even, s)
		if even < n {
			dst[even] *= s
		}
		return
	}
	vecScaleGo(dst, s)
}

// VecAXPY computes dst[j] += s*src[j] for j < len(src); dst must be at least
// as long. Each element is rounded exactly as the scalar expression (the
// packed body multiplies the broadcast s by src with no FMA), so callers
// stay bit-identical across the assembly and portable paths.
func VecAXPY(dst []complex128, s complex128, src []complex128) {
	n := len(src)
	if haveAVX2 && n >= 2 {
		dst = dst[:n]
		even := n &^ 1
		axpyAVX2(&dst[0], &src[0], even, s)
		if even < n {
			dst[even] += s * src[even]
		}
		return
	}
	axpyGo(dst, s, src)
}

// gemmDirectAVX2 is the direct small-block kernel (see gemmDirect):
// C = alpha·A·B + (load ≠ 0 ? C : 0) on dense row-major m×k, k×n and m×n
// operands read in place, for the shapes DirectRoute accepts only.
//
//go:noescape
func gemmDirectAVX2(m, n, k int, a, b, c *complex128, alpha complex128, load int)

// gemmDirect computes C = alpha·A·B + beta·C for NoTrans operands of a
// shape DirectRoute accepts on the AVX2 direct kernel. A general beta is applied
// to C first with the scalar-identical vecScale; beta == 0 never reads C.
// The result is bitwise gemmStripe's (see gemm.go).
func gemmDirect(alpha complex128, a, b *Matrix, beta complex128, c *Matrix) {
	load := 1
	switch beta {
	case 0:
		load = 0
	case 1:
	default:
		vecScale(c.Data, beta)
	}
	gemmDirectAVX2(c.Rows, c.Cols, a.Cols, &a.Data[0], &b.Data[0], &c.Data[0], alpha, load)
}
