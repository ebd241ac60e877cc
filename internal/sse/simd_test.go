package sse

import (
	"math"
	"math/rand"
	"testing"
)

// hardValue draws a float64 that stresses the rounding contract: signed
// zeros, subnormals, huge and tiny magnitudes (whose products overflow or
// underflow), and ordinary values.
func hardValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
	case 3:
		return (rng.Float64() + 0.5) * 1e300
	case 4:
		return -(rng.Float64() + 0.5) * 1e-300
	default:
		return rng.NormFloat64()
	}
}

func hardComplex(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(hardValue(rng), hardValue(rng))
	}
	return v
}

func hardWeights(rng *rand.Rand) *weights {
	w := new(weights)
	copy(w.w[:], hardComplex(rng, 9))
	w.broadcast()
	return w
}

func clones(vs ...[]complex128) [][]complex128 {
	out := make([][]complex128, len(vs))
	for i, v := range vs {
		out[i] = append([]complex128(nil), v...)
	}
	return out
}

func sameBits(t *testing.T, ctx string, got, want []complex128) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: element %d: packed %v, scalar %v", ctx, i, g, w)
		}
	}
}

func requireAVX2(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: only the scalar bodies run")
	}
}

// TestPackedStencilMatchesGo pins the AVX2 stencil bodies (with their
// scalar odd tail) bit for bit against the scalar Go bodies.
func TestPackedStencilMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		for n := 0; n <= 9; n++ {
			wm, wp := hardWeights(rng), hardWeights(rng)
			var in [9][]complex128
			for i := range in {
				in[i] = hardComplex(rng, n)
			}
			v := [3][]complex128{hardComplex(rng, n), hardComplex(rng, n), hardComplex(rng, n)}
			got, want := clones(v[:]...), clones(v[:]...)
			stencilBoth(got[0], got[1], got[2], in[0], in[1], in[2], in[3], in[4], in[5], wm, wp)
			stencilBothGo(want[0], want[1], want[2], in[0], in[1], in[2], in[3], in[4], in[5], &wm.w, &wp.w)
			for j := range v {
				sameBits(t, "stencilBoth", got[j], want[j])
			}
			got, want = clones(v[:]...), clones(v[:]...)
			stencilOne(got[0], got[1], got[2], in[6], in[7], in[8], wm)
			stencilOneGo(want[0], want[1], want[2], in[6], in[7], in[8], &wm.w)
			for j := range v {
				sameBits(t, "stencilOne", got[j], want[j])
			}
		}
	}
}

// TestPackedFixedAMatchesGo pins the AVX2 Norb = 2 fixed-A body against
// the scalar one, for contiguous and gapped source blocks.
func TestPackedFixedAMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		for _, stride := range []int{4, 7} {
			for count := 0; count <= 9; count++ {
				a := hardComplex(rng, 4)
				src := hardComplex(rng, count*stride+4)
				got, want := hardComplex(rng, 4*count), make([]complex128, 4*count)
				fixedARun(got, a, src, stride, 2, count)
				fixedA2Go(want, a, src, stride, count)
				sameBits(t, "fixedARun", got, want)
			}
		}
	}
}

// TestPackedGramMatchesGo pins the AVX2 Norb = 2 Gram body against the
// scalar one over odd and even energy counts, with nonzero starting sums.
func TestPackedGramMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		for count := 0; count <= 9; count++ {
			var xs, ys [3][]complex128
			for i := range xs {
				xs[i] = hardComplex(rng, 4*count)
				ys[i] = hardComplex(rng, 4*count)
			}
			var got, want [9]complex128
			copy(got[:], hardComplex(rng, 9))
			want = got
			gram2(&got, xs, ys)
			gram2Go(&want, xs, ys)
			sameBits(t, "gram2", got[:], want[:])
		}
	}
}

// TestPackedFixedBMatchesGo pins the fused AVX2 Norb = 2 stage ❸–❹ body
// against SBSMMFixedB + scatterRun, with zero V entries (skipped, which
// an infinite B entry makes observable) and gapped Σ blocks.
func TestPackedFixedBMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		for count := 0; count <= 9; count++ {
			const stride = 6
			v := hardComplex(rng, 4*count)
			for e := range v {
				if rng.Intn(4) == 0 {
					v[e] = complex(0, math.Copysign(0, float64(rng.Intn(2)-1)))
				}
			}
			b := hardComplex(rng, 4)
			if trial%4 == 0 {
				b[rng.Intn(4)] = complex(math.Inf(1), 1)
			}
			s := complex(hardValue(rng), hardValue(rng))
			dst := hardComplex(rng, count*stride+4)
			cs := clones(dst, dst)
			got, want := cs[0], cs[1]
			fixedBRun(got, stride, s, v, b, make([]complex128, len(v)), 2)
			fixedBRunGo(want, stride, s, v, b, make([]complex128, len(v)), 2)
			sameBits(t, "fixedBRun", got, want)
		}
	}
}
