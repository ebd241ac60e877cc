package sse

import (
	"math/rand"
	"testing"

	"repro/internal/device"
)

// BenchmarkDaCeNarrow times one fp64 DaCe SSE evaluation on the
// scba-narrow device shape (24 atoms, 6 slabs, Norb=2, Nkz=3, NE=24,
// Nω=4) with Gaussian Green's functions.
func BenchmarkDaCeNarrow(b *testing.B) {
	dev, err := device.Build(device.TestParams(24, 6, 2))
	if err != nil {
		b.Fatal(err)
	}
	in := RandomInput(dev, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DaCe{}.Compute(in)
	}
}

// stageRuns returns k random energy runs of the scba-narrow shape
// (NE = 24 energies of 2×2 blocks).
func stageRuns(k int) [][]complex128 {
	const ne, bl = 24, 4
	rng := rand.New(rand.NewSource(1))
	runs := make([][]complex128, k)
	for i := range runs {
		runs[i] = make([]complex128, ne*bl)
		for e := range runs[i] {
			runs[i][e] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return runs
}

// benchStage runs the packed (simd) and scalar (go) body of one stage as
// sub-benchmarks; the simd one is skipped without AVX2.
func benchStage(b *testing.B, simd, scalar func()) {
	for _, c := range []struct {
		name string
		body func()
	}{{"simd", simd}, {"go", scalar}} {
		b.Run(c.name, func(b *testing.B) {
			if c.name == "simd" && !useAVX2 {
				b.Skip("no AVX2 on this CPU")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.body()
			}
		})
	}
}

// BenchmarkStencil times one two-sided stage-❷ stencil step over a full
// energy run: three V_j accumulators fed by three E−ω and three E+ω runs.
func BenchmarkStencil(b *testing.B) {
	r := stageRuns(9)
	var wm, wp weights
	for e := range wm.w {
		wm.w[e] = r[0][e]
		wp.w[e] = r[1][e]
	}
	wm.broadcast()
	wp.broadcast()
	benchStage(b, func() {
		stencilBoth(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], &wm, &wp)
	}, func() {
		stencilBothGo(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], &wm.w, &wp.w)
	})
}

// BenchmarkGram times one Π Gram pass: the nine traces S_ij over a full
// energy run of three X_i and three Y_j runs.
func BenchmarkGram(b *testing.B) {
	r := stageRuns(6)
	xs := [3][]complex128{r[0], r[1], r[2]}
	ys := [3][]complex128{r[3], r[4], r[5]}
	var s [9]complex128
	benchStage(b, func() { gram2(&s, xs, ys) }, func() { gram2Go(&s, xs, ys) })
}

// BenchmarkFixedA times one stage-❶ fixed-A product pass over an energy
// run read with the G≷ tensor's energy stride (24 atoms of 2×2 blocks).
func BenchmarkFixedA(b *testing.B) {
	const ne, stride = 24, 24 * 4
	rng := rand.New(rand.NewSource(1))
	src := make([]complex128, ne*stride)
	for e := range src {
		src[e] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	a := []complex128{1, 2i, -3, 4 + 1i}
	dst := make([]complex128, ne*4)
	benchStage(b, func() { fixedARun(dst, a, src, stride, 2, ne) }, func() { fixedA2Go(dst, a, src, stride, ne) })
}

// BenchmarkFixedB times one stage ❸–❹ pass: the SBSMM products of an
// energy run by a fixed ∇jH block, scattered into Σ with the energy
// stride of the scba-narrow Σ≷ tensor.
func BenchmarkFixedB(b *testing.B) {
	const ne, stride = 24, 24 * 4
	r := stageRuns(1)
	dst := make([]complex128, ne*stride)
	c := make([]complex128, ne*4)
	blk := []complex128{1, 2i, -3, 4 + 1i}
	s := complex(0.5, -0.25)
	benchStage(b, func() { fixedBRun(dst, stride, s, r[0], blk, c, 2) }, func() { fixedBRunGo(dst, stride, s, r[0], blk, c, 2) })
}
