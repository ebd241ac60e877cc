package negf

import (
	"fmt"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// PrepareElectronBC computes the two contact boundary conditions of
// electron point (ik, ie) into the cache, without solving the point. The
// boundary depends only on the bare Hamiltonian and the energy — not on
// the scattering self-energies — so the task-graph runtime (internal/sdfg)
// schedules it as its own node ahead of the RGF solve, which then hits
// the cache. The arithmetic is identical to the in-solve path, so the
// cached result is bitwise the same. Only meaningful in bc.CacheBC mode;
// with bc.NoCache the result would be recomputed anyway.
//
// With a tracer the call is one "bc/el" span on the trace lane of a
// checked-out solve scratch (none is checked out untraced), the name and
// point of the solve's boundary span: a point's first bc span is
// then the decimation itself (the cache miss), and the solve's lookups
// that follow are the warm hits — the cold/warm split plan.Calibrate
// reads from the trace.
func (s *PointSolver) PrepareElectronBC(h *blocktri.Matrix, ik, ie int) error {
	p := s.Dev.P
	z := complex(p.Energy(ie), p.Eta)
	nb := p.Bnum
	bs := p.ElBlockSize()
	track := 0
	if s.Trace != nil {
		sc := s.getScratch()
		defer s.putScratch(sc)
		track = sc.track
	}
	tBC := s.Trace.Begin()
	if _, err := s.BC.Get(0, ik, ie, func() (*bc.Result, error) {
		return bc.SurfaceGF(edgeBlock(h.Diag[0], z, bs), negated(h.Lower[0], bs), 0, 0)
	}); err != nil {
		return fmt.Errorf("left boundary: %w", err)
	}
	if _, err := s.BC.Get(1, ik, ie, func() (*bc.Result, error) {
		return bc.SurfaceGF(edgeBlock(h.Diag[nb-1], z, bs), negated(h.Upper[nb-2], bs), 0, 0)
	}); err != nil {
		return fmt.Errorf("right boundary: %w", err)
	}
	s.Trace.End(s.TraceRank, track, "bc", "bc/el", ik, ie, tBC)
	return nil
}

// PreparePhononBC is PrepareElectronBC for phonon point (iq, m): the
// boundary blocks are (ω+iη)²·I − Φ with the bare dynamical matrix, again
// independent of the scattering self-energies. It traces as "bc/ph".
func (s *PointSolver) PreparePhononBC(phi *blocktri.Matrix, iq, m int) error {
	p := s.Dev.P
	z := complex(p.Omega(m), p.Eta)
	z2 := z * z
	nb := p.Bnum
	bs := p.PhBlockSize()
	track := 0
	if s.Trace != nil {
		sc := s.getScratch()
		defer s.putScratch(sc)
		track = sc.track
	}
	tBC := s.Trace.Begin()
	if _, err := s.BC.Get(2, iq, m, func() (*bc.Result, error) {
		return bc.SurfaceGF(edgeBlock(phi.Diag[0], z2, bs), negated(phi.Lower[0], bs), 0, 0)
	}); err != nil {
		return fmt.Errorf("left phonon boundary: %w", err)
	}
	if _, err := s.BC.Get(3, iq, m, func() (*bc.Result, error) {
		return bc.SurfaceGF(edgeBlock(phi.Diag[nb-1], z2, bs), negated(phi.Upper[nb-2], bs), 0, 0)
	}); err != nil {
		return fmt.Errorf("right phonon boundary: %w", err)
	}
	s.Trace.End(s.TraceRank, track, "bc", "bc/ph", iq, m, tBC)
	return nil
}

// edgeBlock assembles z·I − B, the contact onsite block of the A matrix
// before any self-energy enters — the same expression the point solves
// build in place.
func edgeBlock(b *linalg.Matrix, z complex128, bs int) *linalg.Matrix {
	d := linalg.Scale(linalg.New(bs, bs), -1, b)
	for r := 0; r < bs; r++ {
		d.Set(r, r, d.At(r, r)+z)
	}
	return d
}

// negated returns −B, the contact coupling block as the A assembly
// produces it.
func negated(b *linalg.Matrix, bs int) *linalg.Matrix {
	return linalg.Scale(linalg.New(bs, bs), -1, b)
}
