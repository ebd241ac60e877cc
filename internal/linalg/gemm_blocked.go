package linalg

// Cache-blocked, packed GEMM. The driver follows the classic three-level
// blocking (Goto/BLIS): NC-wide column blocks of C, KC-deep k-panels
// (packed op(B)), MC-tall row blocks (packed alpha·op(A)), and a
// gemmMR×gemmNR register tile on the packed panels, computed by the AVX2
// assembly micro-kernel on amd64 and by microKernelGo elsewhere.
//
// Bit-identity contract: for every C element the contributions
// (alpha·op(A)[i][k])·op(B)[k][j] are accumulated in ascending k with a
// single accumulator, beta applied exactly once up front, and each
// complex multiply-add rounded exactly as Go's scalar lowering (no FMA
// anywhere) — the same order and association as the retained gemmStripe
// reference, so the blocked kernel (serial or row-partitioned across
// workers) produces bitwise-identical results. The property suite in
// gemm_blocked_test.go pins this across all Op combinations and edge
// shapes.
//
// The MC/KC/NC constants below are compile-time defaults; the effective
// sizes come from Blocking() (see blocking.go) so the plan autotuner can
// retune the cache footprint at runtime without touching results.
const (
	// gemmMR×gemmNR is the register tile: 2×8 complex128 = 8 ymm
	// accumulators, which together with 4 broadcast registers and 4
	// temporaries exactly fills the 16 ymm registers of AVX2.
	gemmMR = 2
	gemmNR = 8
	// gemmKC sizes a packed op(B) micro-panel (gemmNR·gemmKC complex128 =
	// 16 KiB) to half the L1 while it is swept by a whole MC row block.
	gemmKC = 128
	// gemmMC bounds the packed alpha·op(A) block (gemmMC·gemmKC = 256 KiB)
	// to the L2 working set.
	gemmMC = 128
	// gemmNC bounds the packed op(B) panel (gemmKC·gemmNC = 512 KiB).
	gemmNC = 256
	// packThreshold is the m·n·k operation count below which a NoTrans
	// problem off the direct kernel (off AVX2, or a shape DirectRoute
	// rejects) runs on the unpacked gemmStripe reference instead. Transposed
	// operands always pack, which replaces the old per-call .T()/.H()
	// materialization.
	packThreshold = 512
	// directMaxK is the deepest k the direct AVX2 kernel takes: its frame
	// holds the alpha-folded 2-row A panel, 2·directMaxK complex128
	// (2 KiB). With AVX2, the NoTrans×NoTrans problems DirectRoute
	// accepts never pack, so the blocking (Blocking, SetBlocking,
	// plan.ChooseBlocking) only shapes the others: transposed operands,
	// deeper k, parallel sizes, or odd block shapes.
	directMaxK = 64
)

// gemmBlocked computes rows [lo, hi) of C = alpha·op(A)·op(B) + beta·C
// through packed panels from pb.
func gemmBlocked(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix, pb *packBuf, lo, hi int) {
	n := c.Cols
	var kk int
	if opA == NoTrans {
		kk = a.Cols
	} else {
		kk = a.Rows
	}
	ldc := c.Cols
	bs := Blocking()
	pb.ensure((bs.MC+gemmMR)*bs.KC, (bs.NC+gemmNR)*bs.KC)
	for jc := 0; jc < n; jc += bs.NC {
		nc := min2(bs.NC, n-jc)
		for pc := 0; pc < kk; pc += bs.KC {
			kc := min2(bs.KC, kk-pc)
			first := pc == 0
			packB(pb.b, b, opB, pc, kc, jc, nc)
			for ic := lo; ic < hi; ic += bs.MC {
				mc := min2(bs.MC, hi-ic)
				packA(pb.a, alpha, a, opA, ic, mc, pc, kc)
				for jt := 0; jt < nc; jt += gemmNR {
					bp := pb.b[jt*kc:]
					nr := min2(gemmNR, nc-jt)
					for it := 0; it < mc; it += gemmMR {
						mr := min2(gemmMR, mc-it)
						cc := c.Data[(ic+it)*ldc+jc+jt:]
						var acc [gemmMR * gemmNR]complex128
						loadAcc(&acc, cc, ldc, mr, nr, beta, first)
						microKernel(kc, pb.a[it*kc:], bp, &acc)
						storeAcc(cc, ldc, mr, nr, &acc)
					}
				}
			}
		}
	}
}

// loadAcc seeds the register-tile accumulators: beta·C on the first
// k-panel (never reading C when beta == 0 — workspace buffers hand out
// uninitialized memory), C itself on subsequent panels. Lanes past the
// mr×nr edge stay zero; their products are discarded by storeAcc.
func loadAcc(acc *[gemmMR * gemmNR]complex128, cc []complex128, ldc, mr, nr int, beta complex128, first bool) {
	if first {
		if beta == 0 {
			return // acc is already zero
		}
		for r := 0; r < mr; r++ {
			crow := cc[r*ldc:]
			if beta == 1 {
				for s := 0; s < nr; s++ {
					acc[r*gemmNR+s] = crow[s]
				}
			} else {
				for s := 0; s < nr; s++ {
					acc[r*gemmNR+s] = beta * crow[s]
				}
			}
		}
		return
	}
	for r := 0; r < mr; r++ {
		crow := cc[r*ldc:]
		for s := 0; s < nr; s++ {
			acc[r*gemmNR+s] = crow[s]
		}
	}
}

// storeAcc writes the valid mr×nr lanes of the tile back to C.
func storeAcc(cc []complex128, ldc, mr, nr int, acc *[gemmMR * gemmNR]complex128) {
	for r := 0; r < mr; r++ {
		crow := cc[r*ldc:]
		for s := 0; s < nr; s++ {
			crow[s] = acc[r*gemmNR+s]
		}
	}
}

// microKernelGo is the portable register tile: acc[r][s] accumulates
// sum_k ap[k·MR+r]·bp[k·NR+s] in ascending k, one accumulator per
// element — the same ordering as the assembly kernel and gemmStripe.
func microKernelGo(kc int, ap, bp []complex128, acc *[gemmMR * gemmNR]complex128) {
	ap = ap[: gemmMR*kc : gemmMR*kc]
	bp = bp[: gemmNR*kc : gemmNR*kc]
	for k := 0; k < kc; k++ {
		a0 := ap[gemmMR*k]
		a1 := ap[gemmMR*k+1]
		bk := bp[gemmNR*k : gemmNR*k+gemmNR]
		for s, bv := range bk {
			acc[s] += a0 * bv
			acc[gemmNR+s] += a1 * bv
		}
	}
}

// vecSubMulGo is the portable dst[j] -= l*src[j].
func vecSubMulGo(dst, src []complex128, l complex128) {
	for j, sv := range src[:len(dst)] {
		dst[j] -= l * sv
	}
}

// axpyGo is the portable dst[j] += s*src[j] over the length of src.
func axpyGo(dst []complex128, s complex128, src []complex128) {
	dst = dst[:len(src)]
	for j, sv := range src {
		dst[j] += s * sv
	}
}

// HaveAVX2 reports whether the packed no-FMA AVX2 bodies are in use (always
// false off amd64). Other packages dispatch their own packed kernels on it
// rather than probing the CPU again.
func HaveAVX2() bool { return haveAVX2 }

// vecScaleGo is the portable dst[j] *= s.
func vecScaleGo(dst []complex128, s complex128) {
	for j := range dst {
		dst[j] *= s
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
