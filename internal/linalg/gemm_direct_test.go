package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// sameOrNaN is bitwise equality with every NaN equal to every other: the
// packed and scalar paths may propagate different NaN payloads.
func sameOrNaN(x, y complex128) bool {
	same := func(p, q float64) bool {
		if math.IsNaN(p) || math.IsNaN(q) {
			return math.IsNaN(p) && math.IsNaN(q)
		}
		return math.Float64bits(p) == math.Float64bits(q)
	}
	return same(real(x), real(y)) && same(imag(x), imag(y))
}

// directValue draws ordinary values most of the time and otherwise ±0,
// subnormals, ±Inf or NaN, so a product or sum with a special operand
// lands in most tiles of a matrix.
func directValue(rng *rand.Rand) float64 {
	switch rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return math.NaN()
	default:
		return rng.NormFloat64()
	}
}

func directMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = complex(directValue(rng), directValue(rng))
	}
	return m
}

// TestDirectRoute pins which shapes take the direct kernel: the
// solver's block products (8, 12, 32, 48) do, odd m, n mod 4 ≠ 0, odd k,
// k > directMaxK and parallel sizes do not.
func TestDirectRoute(t *testing.T) {
	if !haveAVX2 {
		if DirectRoute(8, 8, 8) {
			t.Fatal("DirectRoute true without AVX2")
		}
		t.Skip("no AVX2 on this CPU: the direct kernel never runs")
	}
	for _, s := range [][3]int{{8, 8, 8}, {12, 12, 12}, {32, 32, 32}, {48, 48, 48}, {2, 4, 2}, {48, 12, 64}} {
		if !DirectRoute(s[0], s[1], s[2]) {
			t.Errorf("DirectRoute%v = false, want true", s)
		}
	}
	for _, s := range [][3]int{{0, 8, 8}, {7, 8, 8}, {8, 6, 8}, {8, 2, 8}, {8, 8, 7}, {8, 8, directMaxK + 2}, {64, 64, 64}} {
		if DirectRoute(s[0], s[1], s[2]) {
			t.Errorf("DirectRoute%v = true, want false", s)
		}
	}
}

// TestGEMMDirectMatchesStripe pins the direct AVX2 kernel bit for bit
// (NaN as NaN) against the gemmStripe reference on every shape it takes
// up to 40: even m and k, n in 4..40 (both the 8-wide strips and the
// 4-wide tail), alpha ∈ {1, −1, general} and beta ∈ {0, 1, general},
// with ±0, subnormal, ±Inf and NaN entries in A, B and C.
func TestGEMMDirectMatchesStripe(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: the direct kernel never runs")
	}
	rng := rand.New(rand.NewSource(41))
	alphas := []complex128{1, -1, complex(0.75, -1.25)}
	betas := []complex128{0, 1, complex(-0.5, 2)}
	for n := 4; n <= 40; n += 4 {
		for m := 2; m <= 40; m += 2 {
			for ki, k := range []int{2, 4, 8, 12, 26, 32, 40} {
				checkDirect(t, rng, m, n, k, alphas[(n/4+m/2)%3], betas[(n/4+ki)%3])
			}
		}
	}
	for _, alpha := range alphas {
		for _, beta := range betas {
			for range 40 {
				checkDirect(t, rng, 2+2*rng.Intn(20), 4+4*rng.Intn(10), 2+2*rng.Intn(20), alpha, beta)
			}
		}
	}
	// The deepest panel the kernel's frame holds.
	checkDirect(t, rng, 10, 12, directMaxK, complex(0.75, -1.25), complex(-0.5, 2))
}

func checkDirect(t *testing.T, rng *rand.Rand, m, n, k int, alpha, beta complex128) {
	t.Helper()
	if !DirectRoute(m, n, k) {
		t.Fatalf("m=%d n=%d k=%d does not take the direct route", m, n, k)
	}
	a, b, c := directMat(rng, m, k), directMat(rng, k, n), directMat(rng, m, n)
	want := c.Clone()
	gemmStripe(alpha, a, b, beta, want, 0, m)
	gemmDirect(alpha, a, b, beta, c)
	for i := range want.Data {
		if !sameOrNaN(c.Data[i], want.Data[i]) {
			t.Fatalf("m=%d n=%d k=%d alpha=%v beta=%v: C[%d][%d] = %v, stripe %v",
				m, n, k, alpha, beta, i/n, i%n, c.Data[i], want.Data[i])
		}
	}
}

// TestGEMMRoutesMatchStripe runs GEMM on every n in 1..40 (all n mod 8),
// odd and even m and k, so shapes on and off the direct route meet the
// same special entries, and pins each result bit for bit (NaN as NaN)
// against gemmStripe: the route a shape takes changes no bit.
func TestGEMMRoutesMatchStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alphas := []complex128{1, -1, complex(0.75, -1.25)}
	betas := []complex128{0, 1, complex(-0.5, 2)}
	ms := []int{1, 2, 3, 5, 8, 12, 17, 32, 39, 40}
	ks := []int{1, 2, 3, 7, 8, 12, 25, 32, 40}
	for n := 1; n <= 40; n++ {
		for mi, m := range ms {
			for ki, k := range ks {
				alpha, beta := alphas[(n+mi)%3], betas[(n+ki)%3]
				a, b, c := directMat(rng, m, k), directMat(rng, k, n), directMat(rng, m, n)
				want := c.Clone()
				gemmStripe(alpha, a, b, beta, want, 0, m)
				GEMM(alpha, a, NoTrans, b, NoTrans, beta, c)
				for i := range want.Data {
					if !sameOrNaN(c.Data[i], want.Data[i]) {
						t.Fatalf("m=%d n=%d k=%d alpha=%v beta=%v (direct %v): C[%d][%d] = %v, stripe %v",
							m, n, k, alpha, beta, DirectRoute(m, n, k), i/n, i%n, c.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
