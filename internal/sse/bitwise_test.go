package sse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/device"
)

// outputDigest hashes the exact bits of Σ≷ and Π≷, so two kernels that
// agree to the last ulp (and in the sign of every zero) hash equal.
func outputDigest(out *Output) string {
	h := sha256.New()
	var buf [16]byte
	for _, data := range [][]complex128{out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data} {
		for _, v := range data {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// TestDaCeBitwiseDigests pins the DaCe and Mixed outputs bit for bit. The
// digests were recorded from the block-at-a-time schedule (one GEMM, one
// AXPY and one trace per Norb×Norb block); the energy-run schedule must
// deliver every term to every destination in the same order, so any
// reordering of a sum shows up here. The "sparse" case zeroes one (i, j)
// entry of every phonon block, so that direction pair has both ω-weights
// zero and must be skipped rather than accumulated as 0·P.
//
// Only amd64 is pinned: Go fuses x*y+z into FMA on arm64, ppc64le and
// s390x, which changes the rounding of every product-sum.
func TestDaCeBitwiseDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 rounding (GOARCH=%s may fuse multiply-adds)", runtime.GOARCH)
	}
	in := synthInput(t, 1)
	sparse := &Input{Dev: in.Dev, GL: in.GL, GG: in.GG, DL: in.DL.Clone(), DG: in.DG.Clone()}
	for o := 0; o < len(sparse.DL.Data); o += device.N3D * device.N3D {
		sparse.DL.Data[o+0*device.N3D+2] = 0
		sparse.DG.Data[o+0*device.N3D+2] = 0
	}
	// Norb=3 leaves the Norb=2 fast paths; NE < 2·Nω makes the E−ω and
	// E+ω stencil ranges overlap and empties the Π run at high ω.
	p := device.TestParams(9, 3, 3)
	p.NE = 7
	p.Nomega = 4
	odd := synthInputFor(t, p, 1)
	cases := []struct {
		name string
		in   *Input
		k    Kernel
		want string
	}{
		{"DaCe", in, DaCe{}, "95bbf8838c780ef4484b23ed1ceec914"},
		{"DaCe tile", in, DaCe{Atoms: []int{1, 4, 5, 9}, ELo: 3, EHi: 8}, "2a81f5a38d2f67c2e37c5d4698989765"},
		{"DaCe sparse", sparse, DaCe{}, "28a221b4c5893ac899ce273af577a30b"},
		{"DaCe Norb=3", odd, DaCe{}, "e6a85ba65d6589cfb388fb04741342be"},
		{"DaCe Norb=3 tile", odd, DaCe{Atoms: []int{0, 4, 8}, ELo: 2, EHi: 6}, "49b0a193a5b877268e5ff0270ae99d03"},
		{"Mixed", in, Mixed{Normalize: true}, "8f8eb063089c641b5b2b9a4b8b25cbcd"},
	}
	for _, c := range cases {
		if got := outputDigest(c.k.Compute(c.in)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
