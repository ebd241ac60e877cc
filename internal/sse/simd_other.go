//go:build !amd64

package sse

// The packed bodies exist only on amd64; useAVX2 is false elsewhere, so
// these are never called.

func stencilBothAVX2(v0, v1, v2, m0, m1, m2, p0, p1, p2 *complex128, n int, wm, wp *[9][8]float64) {
	panic("sse: no AVX2 body on this architecture")
}

func stencilOneAVX2(v0, v1, v2, q0, q1, q2 *complex128, n int, w *[9][8]float64) {
	panic("sse: no AVX2 body on this architecture")
}

func fixedA2AVX2(dst, a, src *complex128, stride, count int) {
	panic("sse: no AVX2 body on this architecture")
}

func gram2AVX2(s *[9]complex128, x0, x1, x2, y0, y1, y2 *complex128, count int) {
	panic("sse: no AVX2 body on this architecture")
}

func fixedB2AVX2(dst *complex128, stride int, s complex128, v, b *complex128, count int) {
	panic("sse: no AVX2 body on this architecture")
}
