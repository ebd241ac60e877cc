package linalg

import (
	"fmt"
	"sync/atomic"
)

// BlockSizes are the cache-blocking parameters of the packed GEMM
// driver: MC-tall row blocks of packed alpha·op(A), KC-deep k-panels,
// and NC-wide column blocks of packed op(B). The register tile
// (gemmMR×gemmNR) is fixed by the micro-kernel's register budget and is
// not tunable.
//
// The blocked driver's bit-identity contract is independent of the
// blocking: every C element is accumulated in ascending k with a single
// accumulator regardless of how the loops are tiled, so changing these
// sizes changes cache behavior only, never results. That is what makes
// them safe to expose as a runtime knob for the plan autotuner.
type BlockSizes struct {
	MC int // rows of the packed A block (L2 working set)
	KC int // depth of a k-panel (L1 working set with the B micro-panel)
	NC int // columns of the packed B panel (L3 / mid-level working set)
}

// DefaultBlocking is the hand-tuned AVX2 blocking the constants in
// gemm_blocked.go document: 16 KiB B micro-panels, 256 KiB A blocks,
// 512 KiB B panels.
func DefaultBlocking() BlockSizes {
	return BlockSizes{MC: gemmMC, KC: gemmKC, NC: gemmNC}
}

var blocking atomic.Pointer[BlockSizes]

// Blocking returns the blocking currently in effect.
func Blocking() BlockSizes {
	if p := blocking.Load(); p != nil {
		return *p
	}
	return DefaultBlocking()
}

// SetBlocking installs bs process-wide for subsequent packed GEMM calls;
// problems on the direct small-block path (see DirectRoute) never pack and
// are unaffected. Each gemmBlocked invocation reads the blocking once at
// entry, so a call racing with SetBlocking uses one coherent set of sizes;
// concurrent row-partitioned workers of the same GEMM may in principle
// observe different sizes, which is harmless under the bit-identity
// contract.
// The sizes must cover at least one register tile (MC ≥ 2, NC ≥ 8,
// KC ≥ 1); anything smaller is rejected.
func SetBlocking(bs BlockSizes) error {
	if bs.MC < gemmMR || bs.NC < gemmNR || bs.KC < 1 {
		return fmt.Errorf("linalg: blocking %+v below the %d×%d register tile", bs, gemmMR, gemmNR)
	}
	blocking.Store(&bs)
	return nil
}

// ResetBlocking restores the compiled-in default.
func ResetBlocking() { blocking.Store(nil) }
