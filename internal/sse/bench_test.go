package sse

import (
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
