// Package linalg provides dense complex linear algebra for the quantum
// transport solver: matrices of complex128 stored row-major, parallel
// blocked matrix multiplication, LU factorization with partial pivoting,
// linear solves and inversion, and the elementwise operations the NEGF
// pipeline needs (Hermitian conjugation, traces, norms, scaling).
//
// The package is self-contained (stdlib only) and plays the role that
// cuBLAS/MKL play in the original OMEN and DaCe OMEN codes. All entry
// points optionally account flops through a package counter so that the
// performance model in internal/model can be cross-checked against the
// kernels actually executed.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense complex matrix stored in row-major order.
// The zero value is an empty matrix; use New to allocate.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// New returns a zero-initialized r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// FromSlice wraps data (row-major, length r*c) in a Matrix without copying.
func FromSlice(r, c int, data []complex128) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	n := New(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// CopyFrom copies the contents of src into m. Panics on shape mismatch.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("linalg: CopyFrom shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// IsSquare reports whether m has equal row and column counts.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// H returns a newly allocated Hermitian conjugate (conjugate transpose) of m.
func (m *Matrix) H() *Matrix {
	return HInto(New(m.Cols, m.Rows), m)
}

// TInto stores aᵀ into dst without allocating and returns dst.
// dst must not alias a.
func TInto(dst, a *Matrix) *Matrix {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("linalg: TInto shape mismatch %dx%d <- (%dx%d)ᵀ", dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
	return dst
}

// HInto stores aᴴ into dst without allocating and returns dst.
// dst must not alias a.
func HInto(dst, a *Matrix) *Matrix {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("linalg: HInto shape mismatch %dx%d <- (%dx%d)ᴴ", dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = cmplx.Conj(v)
		}
	}
	return dst
}

// SetIdentity overwrites square m with the identity matrix.
func (m *Matrix) SetIdentity() {
	if !m.IsSquare() {
		panic("linalg: SetIdentity of non-square matrix")
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// Conj returns a newly allocated elementwise complex conjugate of m.
func (m *Matrix) Conj() *Matrix {
	c := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		c.Data[i] = cmplx.Conj(v)
	}
	return c
}

// Trace returns the sum of diagonal elements. Panics if m is not square.
func (m *Matrix) Trace() complex128 {
	if !m.IsSquare() {
		panic("linalg: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest elementwise magnitude in m.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether a and b have the same shape and all elements
// agree within absolute tolerance tol.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxDiff returns the largest elementwise |a-b|. Panics on shape mismatch.
func MaxDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxDiff shape mismatch")
	}
	var mx float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// Add stores a+b into dst (which may alias a or b) and returns dst.
func Add(dst, a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	checkSameShape("Add", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub stores a−b into dst (which may alias a or b) and returns dst.
func Sub(dst, a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	checkSameShape("Sub", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Scale stores s*a into dst (which may alias a) and returns dst.
func Scale(dst *Matrix, s complex128, a *Matrix) *Matrix {
	checkSameShape("Scale", dst, a)
	for i := range a.Data {
		dst.Data[i] = s * a.Data[i]
	}
	return dst
}

// AXPY performs dst += s*a and returns dst.
func AXPY(dst *Matrix, s complex128, a *Matrix) *Matrix {
	checkSameShape("AXPY", dst, a)
	VecAXPY(dst.Data, s, a.Data)
	return dst
}

// Hermitize stores (a + aᴴ)/2 into dst and returns dst. Used by tests and
// by the synthetic device builder to enforce Hermitian Hamiltonians.
func Hermitize(dst, a *Matrix) *Matrix {
	if !a.IsSquare() {
		panic("linalg: Hermitize of non-square matrix")
	}
	h := a.H()
	Add(dst, a, h)
	return Scale(dst, 0.5, dst)
}

// AntiHermitianPart returns (a − aᴴ)/2, the anti-Hermitian part of a.
// In NEGF the spectral content of Gᴿ and Σ≷ lives here.
func AntiHermitianPart(a *Matrix) *Matrix {
	h := a.H()
	d := New(a.Rows, a.Cols)
	Sub(d, a, h)
	return Scale(d, 0.5, d)
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
