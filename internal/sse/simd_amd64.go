//go:build amd64

package sse

// Packed AVX2 bodies of the DaCe stages (simd_amd64.s). The bounds of
// every slice are checked by the Go dispatchers in dace.go before a
// pointer is passed.

//go:noescape
func stencilBothAVX2(v0, v1, v2, m0, m1, m2, p0, p1, p2 *complex128, n int, wm, wp *[9][8]float64)

//go:noescape
func stencilOneAVX2(v0, v1, v2, q0, q1, q2 *complex128, n int, w *[9][8]float64)

//go:noescape
func fixedA2AVX2(dst, a, src *complex128, stride, count int)

//go:noescape
func gram2AVX2(s *[9]complex128, x0, x1, x2, y0, y1, y2 *complex128, count int)

//go:noescape
func fixedB2AVX2(dst *complex128, stride int, s complex128, v, b *complex128, count int)
