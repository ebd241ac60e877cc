package bc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// surfaceGFLoop is the decimation loop as SurfaceGF ran it before the
// loop moved onto per-call storage: fresh matrices every iteration and
// four linalg.Mul3 triple products. It is the bitwise oracle for the
// allocation-free loop.
func surfaceGFLoop(d00, tau *linalg.Matrix, tol float64, maxIter int) (*Result, error) {
	eps := d00.Clone()
	epsS := d00.Clone()
	alpha := tau.Clone()
	beta := tau.H()
	for it := 1; it <= maxIter; it++ {
		g, err := linalg.Inverse(eps)
		if err != nil {
			return nil, err
		}
		agb := linalg.Mul3(alpha, g, beta)
		bga := linalg.Mul3(beta, g, alpha)
		linalg.AXPY(epsS, -1, agb)
		linalg.AXPY(eps, -1, agb)
		linalg.AXPY(eps, -1, bga)
		alpha = linalg.Mul3(alpha, g, alpha)
		beta = linalg.Mul3(beta, g, beta)
		if alpha.FrobNorm() < tol && beta.FrobNorm() < tol {
			gs, err := linalg.Inverse(epsS)
			if err != nil {
				return nil, err
			}
			sig := linalg.Mul3(tau, gs, tau.H())
			return &Result{Surface: gs, SigmaR: sig, Gamma: gammaOf(sig), Iters: it}, nil
		}
	}
	return nil, ErrNoConvergence
}

// gammaOf computes Γ = i(Σ − Σᴴ).
func gammaOf(sigma *linalg.Matrix) *linalg.Matrix {
	g := linalg.Sub(linalg.New(sigma.Rows, sigma.Cols), sigma, sigma.H())
	return linalg.Scale(g, 1i, g)
}

func sameBits(x, y *linalg.Matrix) bool {
	for i := range x.Data {
		if math.Float64bits(real(x.Data[i])) != math.Float64bits(real(y.Data[i])) ||
			math.Float64bits(imag(x.Data[i])) != math.Float64bits(imag(y.Data[i])) {
			return false
		}
	}
	return len(x.Data) == len(y.Data)
}

// TestSurfaceGFMatchesLoop pins SurfaceGF's Result bit for bit to the
// reference loop across an energy grid through and outside the lead band,
// at the workloads' electron block sizes 8 and 32.
func TestSurfaceGFMatchesLoop(t *testing.T) {
	for _, n := range []int{8, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		for ie := 0; ie < 17; ie++ {
			e := -2 + 0.25*float64(ie)
			d00, tau := leadBlocks(rng, n, e, 1e-3)
			got, err := SurfaceGF(d00, tau, 0, 0)
			if err != nil {
				t.Fatalf("n=%d E=%g: %v", n, e, err)
			}
			want, err := surfaceGFLoop(d00, tau, DefaultTol, DefaultMaxIter)
			if err != nil {
				t.Fatalf("n=%d E=%g: reference: %v", n, e, err)
			}
			if got.Iters != want.Iters {
				t.Fatalf("n=%d E=%g: %d iterations, reference %d", n, e, got.Iters, want.Iters)
			}
			for _, c := range []struct {
				name      string
				got, want *linalg.Matrix
			}{{"gs", got.Surface, want.Surface}, {"Σᴿ", got.SigmaR, want.SigmaR}, {"Γ", got.Gamma, want.Gamma}} {
				if !sameBits(c.got, c.want) {
					t.Fatalf("n=%d E=%g: %s differs from the reference loop (max |Δ| %g)",
						n, e, c.name, linalg.MaxDiff(c.got, c.want))
				}
			}
		}
	}
}

// TestSurfaceGFAllocationsIndependentOfIterations checks that the
// decimation allocates per call, not per iteration: two leads that need
// different iteration counts cost the same number of allocations.
func TestSurfaceGFAllocationsIndependentOfIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	d00, tau := leadBlocks(rng, n, 0.2, 1e-3)
	fast, _ := leadBlocks(rng, n, 0.2, 0.5)
	iters := func(d *linalg.Matrix) int {
		res, err := SurfaceGF(d, tau, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iters
	}
	slowIt, fastIt := iters(d00), iters(fast)
	if slowIt <= fastIt+2 {
		t.Fatalf("leads need %d and %d iterations: too close to tell", slowIt, fastIt)
	}
	slow := testing.AllocsPerRun(20, func() { _, _ = SurfaceGF(d00, tau, 0, 0) })
	quick := testing.AllocsPerRun(20, func() { _, _ = SurfaceGF(fast, tau, 0, 0) })
	if slow != quick {
		t.Fatalf("%v allocs at %d iterations, %v at %d: allocation grows with the iteration count",
			slow, slowIt, quick, fastIt)
	}
}

// BenchmarkSurfaceGF times one cold decimation at the workloads' electron
// block sizes.
func BenchmarkSurfaceGF(b *testing.B) {
	for _, n := range []int{8, 32} {
		d00, tau := leadBlocks(rand.New(rand.NewSource(1)), n, 0.3, 1e-3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SurfaceGF(d00, tau, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
