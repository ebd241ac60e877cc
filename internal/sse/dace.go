package sse

import (
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/linalg"
)

// DaCe is the data-centric SSE kernel after the Fig. 6 transformation
// chain: ❶ map fission materializes the ∇H·G≷ products as transients,
// ❷ the data layout places the energy axis contiguous ("constant stride"),
// ❸ the accumulated products collapse into strided-batched multiplications
// with a fixed right operand (SBSMM), and ❹ the maps are fused back per
// atom. The result is bit-wise the same self-energies as OMEN with ~6·Nω
// fewer matrix multiplications; the surviving work is complex AXPY streams,
// which is why SSE lands in the memory-bound region of the roofline
// (Fig. 10).
//
// Every inner stage is one pass over a contiguous [NE][Norb²] energy run
// rather than one call per Norb×Norb block: stage ❶ is a fixed-A product
// loop over the run, stage ❷ loads each transient element once and feeds
// all three V_j accumulators, and the Π stage reads the three X_i and
// three Y_j blocks once per energy to build the full 3×3 Gram matrix of
// traces. The passes deliver every term to every destination in the
// block-at-a-time order (V_j by direction i, the E−ω term before the E+ω
// term, zero-weight direction pairs skipped; each Π sum in ascending
// (kz, E) order, each trace in (r, c) order), so the output is
// bit-for-bit that of the block-at-a-time schedule wherever Go does not
// fuse x*y+z into one rounding (amd64 does not).
//
// On amd64 with AVX2 the stages run packed bodies (simd_amd64.s) that
// hold two complex values per ymm register: the stencil takes element
// pairs of a run against broadcast ω-weight tables built once per
// (qz, ω), the Norb = 2 Gram pass packs an energy pair per register, and
// the Norb = 2 stage ❶ and fused stage ❸–❹ bodies broadcast one operand
// against contiguous block rows. Every term is mul, mul, addsub, add with
// no FMA, and each destination receives its terms in the scalar order,
// so the packed bodies are bitwise equal to the scalar Go ones, which
// stay as the portable path and as the tests' reference. This holds
// even where the packed body broadcasts the right factor instead of the
// left: IEEE multiplication and addition are each commutative, so
// yr*xr − yi*xi and yr*xi + yi*xr are exactly Go's xr*yr − xi*yi and
// xr*yi + xi*yr.
//
// Atoms optionally restricts the kernel to a subset of atoms (nil = all):
// Σ≷_aa and the Π≷_a* blocks are produced only for listed atoms. ELo/EHi
// restrict the electron energy range [ELo, EHi) owned by this instance
// (0,0 = full range): Σ≷ is written only at owned energies and Π≷ sums
// only over pairs whose base energy is owned. Together these express the
// Ta×TE tile of the communication-avoiding decomposition (Fig. 5, right);
// summing outputs over a partition of atoms×energies reproduces the full
// result.
type DaCe struct {
	Atoms    []int
	ELo, EHi int
}

// Name implements Kernel.
func (DaCe) Name() string { return "DaCe" }

// Compute implements Kernel.
func (d DaCe) Compute(in *Input) *Output {
	return daceCompute(in, nil, d.restrict(in))
}

// restrict normalizes the tile description.
func (d DaCe) restrict(in *Input) *restriction {
	r := &restriction{atoms: d.Atoms, elo: d.ELo, ehi: d.EHi}
	if r.atoms == nil {
		r.atoms = make([]int, in.GL.Na)
		for i := range r.atoms {
			r.atoms[i] = i
		}
	}
	if r.ehi <= 0 {
		r.ehi = in.GL.NE
	}
	return r
}

// restriction is the resolved tile: the atom list and owned energy range.
type restriction struct {
	atoms    []int
	elo, ehi int
}

// transient holds the ∇iH·G≷ products for one ordered pair:
// layout [3 directions][Nkz][NE][Norb²] with the energy axis contiguous
// per direction/momentum — the step-❷ data layout.
type transient struct {
	data    []complex128
	nkz, ne int
	n, bl   int // Norb and Norb²
}

func newTransient(nkz, ne, norb int) *transient {
	bl := norb * norb
	return &transient{data: make([]complex128, 3*nkz*ne*bl), nkz: nkz, ne: ne, n: norb, bl: bl}
}

// eRow returns the contiguous [NE][Norb²] row for (direction, momentum) —
// the energy run every stage makes its single pass over.
func (t *transient) eRow(i, ik int) []complex128 {
	o := (i*t.nkz + ik) * t.ne * t.bl
	return t.data[o : o+t.ne*t.bl]
}

// useAVX2 selects the packed AVX2 stage bodies (simd_amd64.s); it reads
// linalg's one CPU probe. The scalar Go bodies are the portable path.
var useAVX2 = linalg.HaveAVX2()

// weights is one (qz, ω) set of the nine direction-pair weights D̃_ij
// and its broadcast table for the packed stencil bodies: per weight, four
// copies of its real part, then four of its imaginary part.
type weights struct {
	w  [9]complex128
	bc [9][8]float64
}

// broadcast fills the table from w, once per (qz, ω) rather than per pass.
func (w *weights) broadcast() {
	for e, v := range w.w {
		re, im := real(v), imag(v)
		w.bc[e] = [8]float64{re, re, re, re, im, im, im, im}
	}
}

// quantizer optionally maps the coupling matrices into emulated fp16
// before use; nil means full double precision. It is how the Mixed kernel
// reuses the DaCe schedule (the Green's functions arrive pre-quantized).
type quantizer struct {
	gradH func(a, b, i int) *linalg.Matrix
	// denorm rescales the final accumulations (inverse normalization).
	denormSigma complex128
	denormPi    complex128
}

func daceCompute(in *Input, q *quantizer, restr *restriction) *Output {
	if restr == nil {
		restr = (DaCe{}).restrict(in)
	}
	out := newOutput(in)
	p := in.Dev.P
	norb := p.Norb
	bl := norb * norb
	nw := p.Nomega
	nkz, ne := p.Nkz, p.NE
	elo, ehi := restr.elo, restr.ehi
	eCount := ehi - elo
	gStride := in.GL.Na * bl // distance between energies in G≷ and Σ≷
	prefS := prefSigma(p)
	prefP := prefPi(p)
	gradH := in.Dev.GradH
	if q != nil {
		prefS *= q.denormSigma
		prefP *= q.denormPi
		gradH = q.gradH
	}

	var matmuls, scalarOps atomic.Int64

	parallelAtoms(len(restr.atoms), func(ai int) {
		a := restr.atoms[ai]
		var wl, wg weights
		var localMuls, localScalar int64
		// Per-pair transients and accumulators, reused across neighbours.
		pLab := newTransient(nkz, ne, norb) // ∇iH_ab·G<_bb
		pGab := newTransient(nkz, ne, norb) // ∇iH_ab·G>_bb
		pLba := newTransient(nkz, ne, norb) // ∇iH_ba·G<_aa
		pGba := newTransient(nkz, ne, norb) // ∇iH_ba·G>_aa
		vL := newTransient(nkz, ne, norb)   // Σ-stage accumulators, per j
		vG := newTransient(nkz, ne, norb)
		cBuf := make([]complex128, ne*bl) // SBSMM output row
		ab := make([]complex128, bl)      // 1·∇iH_ab, the fixed stage-❶ operands
		ba := make([]complex128, bl)      // 1·∇iH_ba

		for slotAB, b := range in.Dev.Neigh[a] {
			slotBA := in.Dev.NeighbourSlot(b, a)

			// ── Stage ❶: map fission — materialize the ∇H·G transients,
			// one fixed-A product pass per (i, kz) energy run (packed at
			// Norb = 2: 1·∇H broadcast against the G row pairs).
			for i := 0; i < 3; i++ {
				scaleOne(ab, gradH(a, b, i).Data)
				scaleOne(ba, gradH(b, a, i).Data)
				for ik := 0; ik < nkz; ik++ {
					gb := in.GL.Index(ik, 0, b)
					ga := in.GL.Index(ik, 0, a)
					fixedARun(pLab.eRow(i, ik), ab, in.GL.Data[gb:], gStride, norb, ne)
					fixedARun(pGab.eRow(i, ik), ab, in.GG.Data[gb:], gStride, norb, ne)
					fixedARun(pLba.eRow(i, ik), ba, in.GL.Data[ga:], gStride, norb, ne)
					fixedARun(pGba.eRow(i, ik), ba, in.GG.Data[ga:], gStride, norb, ne)
				}
			}
			localMuls += int64(4 * 3 * nkz * ne)

			// ── Stage ❷: ω-stencil accumulation with the energy axis
			// contiguous. V_j(kz,E) gathers every (qz, ω, i) contribution
			// as complex AXPYs, one pass per (qz, ω, kz) energy run, packed
			// two elements per register against the weight tables built
			// here once per (qz, ω); the matrix multiplications by ∇jH_ba
			// are deferred to stage ❸.
			zero(vL.data)
			zero(vG.data)
			for iq := 0; iq < nkz; iq++ {
				for m := 1; m <= nw; m++ {
					dTilde(in.DL, in.DG, iq, m-1, a, b, slotAB, slotBA, &wl.w, &wg.w)
					wl.broadcast()
					wg.broadcast()
					for ik := 0; ik < nkz; ik++ {
						ikq := ((ik-iq)%nkz + nkz) % nkz
						// Σ<: G<(E−ω)·D̃< + G<(E+ω)·D̃>; Σ> swaps the weights.
						stencilPass(vL, pLab, ik, ikq, m, &wl, &wg)
						stencilPass(vG, pGab, ik, ikq, m, &wg, &wl)
					}
				}
			}
			localScalar += int64(9*nkz*nkz*nw) * int64(2*ne) * int64(bl) * 8

			// ── Stage ❸: strided-batched SBSMM with fixed right operand
			// ∇jH_ba over the contiguous energy batch, then fused
			// scatter-accumulate into Σ≷ (stage ❹); at Norb = 2 one packed
			// pass does both, other Norb scatter through linalg.VecAXPY.
			c := cBuf[:eCount*bl]
			for j := 0; j < 3 && eCount > 0; j++ {
				gjh := gradH(b, a, j)
				for ik := 0; ik < nkz; ik++ {
					sig := out.SigL.Index(ik, elo, a)
					fixedBRun(out.SigL.Data[sig:], gStride, prefS, vL.eRow(j, ik)[elo*bl:ehi*bl], gjh.Data, c, norb)
					fixedBRun(out.SigG.Data[sig:], gStride, prefS, vG.eRow(j, ik)[elo*bl:ehi*bl], gjh.Data, c, norb)
					localMuls += int64(2 * eCount)
				}
			}

			// ── Π≷ via the same transients: trace contractions replace
			// the OMEN matmul+trace, and the (a,b) kernel feeds both the
			// neighbour block and the diagonal l-sum of Eq. (3). One Gram
			// pass per (qz, ω, kz) over the owned energy run builds all
			// nine S_ij = Σ tr[(∇iH_ba·G≷_aa(E+ω))·(∇jH_ab·G≶_bb(E))]
			// (packed at Norb = 2: the two energies of a pair in the two
			// lanes, the lower one joining S_ij first).
			for iq := 0; iq < nkz; iq++ {
				for m := 1; m <= nw; m++ {
					var sL, sG [9]complex128
					if run := min(ehi, ne-m) - elo; run > 0 {
						for ik := 0; ik < nkz; ik++ {
							ikpq := (ik + iq) % nkz
							gramRun(&sL, pLba, ikpq, elo+m, pGab, ik, elo, run)
							gramRun(&sG, pGba, ikpq, elo+m, pLab, ik, elo, run)
						}
					}
					piLd := out.PiL.Block(iq, m-1, a, 0)
					piGd := out.PiG.Block(iq, m-1, a, 0)
					piLn := out.PiL.Block(iq, m-1, a, 1+slotAB)
					piGn := out.PiG.Block(iq, m-1, a, 1+slotAB)
					for e := range sL {
						piLd[e] += prefP * sL[e]
						piGd[e] += prefP * sG[e]
						piLn[e] += prefP * sL[e]
						piGn[e] += prefP * sG[e]
					}
				}
			}
			localScalar += int64(9*nkz*nkz*nw) * int64(ne) * int64(bl) * 16
		}
		matmuls.Add(localMuls)
		scalarOps.Add(localScalar)
	})

	n3 := int64(norb) * int64(norb) * int64(norb)
	out.Stats = Stats{
		MatMuls:   matmuls.Load(),
		Flops:     matmuls.Load() * 8 * n3,
		ScalarOps: scalarOps.Load(),
		BytesMoved: in.GL.Bytes() + in.GG.Bytes() + in.DL.Bytes() + in.DG.Bytes() +
			out.SigL.Bytes() + out.SigG.Bytes() + out.PiL.Bytes() + out.PiG.Bytes(),
	}
	return out
}

// scaleOne sets dst = 1·src with a full complex multiplication — the
// alpha-scaled operand a GEMM with alpha = 1 forms. It can differ from a
// plain copy in the sign of a zero component, which the bitwise contract
// keeps.
func scaleOne(dst, src []complex128) {
	one := complex(1, 0)
	for e, v := range src {
		dst[e] = one * v
	}
}

// fixedARun writes dst[t] = A·src[t] for count n×n blocks: the source
// blocks sit stride elements apart (one energy run of a G≷ tensor), the
// destination blocks are contiguous. a holds 1·A (see scaleOne). Each
// element is 0 + Σ_p a_rp·b_pc summed in ascending p, the order of the
// unpacked reference GEMM.
func fixedARun(dst, a, src []complex128, stride, n, count int) {
	if n == 2 {
		if useAVX2 && count > 0 {
			_, _, _ = a[3], src[(count-1)*stride+3], dst[4*count-1]
			fixedA2AVX2(&dst[0], &a[0], &src[0], stride, count)
			return
		}
		fixedA2Go(dst, a, src, stride, count)
		return
	}
	bl := n * n
	for t := 0; t < count; t++ {
		s := src[t*stride : t*stride+bl]
		d := dst[t*bl : (t+1)*bl]
		for r := 0; r < n; r++ {
			ar := a[r*n : (r+1)*n]
			for c := 0; c < n; c++ {
				var acc complex128
				for p, av := range ar {
					acc += av * s[p*n+c]
				}
				d[r*n+c] = acc
			}
		}
	}
}

// fixedA2Go is the Norb = 2 body of fixedARun, unrolled.
func fixedA2Go(dst, a, src []complex128, stride, count int) {
	a00, a01, a10, a11 := a[0], a[1], a[2], a[3]
	var z complex128
	for t := 0; t < count; t++ {
		s := src[t*stride : t*stride+4 : t*stride+4]
		d := dst[t*4 : t*4+4 : t*4+4]
		b00, b01, b10, b11 := s[0], s[1], s[2], s[3]
		d[0] = z + a00*b00 + a01*b10
		d[1] = z + a00*b01 + a01*b11
		d[2] = z + a10*b00 + a11*b10
		d[3] = z + a10*b01 + a11*b11
	}
}

// stencilPass adds one (qz, ω) stencil step to the three V_j(kz) energy
// runs: V_j(E) += Σ_i wm_ij·P_i(E−ω) + wp_ij·P_i(E+ω), with P_i the
// (i, kz−qz) run of p and terms leaving the grid dropped. Each V_j element
// receives its terms by direction i, the E−ω term before the E+ω term;
// direction pairs whose two weights are both zero are skipped.
func stencilPass(v, p *transient, ik, ikq, m int, wm, wp *weights) {
	bl, ne := v.bl, v.ne
	if ne <= m {
		return
	}
	v0, v1, v2 := v.eRow(0, ik), v.eRow(1, ik), v.eRow(2, ik)
	p0, p1, p2 := p.eRow(0, ikq), p.eRow(1, ikq), p.eRow(2, ikq)
	sparse := false
	for e := range wm.w {
		sparse = sparse || wm.w[e] == 0 && wp.w[e] == 0
	}
	if sparse {
		// A skipped pair must not add 0·P (that can flip a zero's sign or
		// turn Inf into NaN), so sparse weights take one E−ω and one E+ω
		// AXPY pass per active pair, in (i, j) order.
		vs := [3][]complex128{v0, v1, v2}
		ps := [3][]complex128{p0, p1, p2}
		s := m * bl
		for i, pi := range ps {
			for j, vj := range vs {
				e := i*3 + j
				if wm.w[e] == 0 && wp.w[e] == 0 {
					continue
				}
				linalg.VecAXPY(vj[s:], wm.w[e], pi[:len(pi)-s])
				linalg.VecAXPY(vj[:len(vj)-s], wp.w[e], pi[s:])
			}
		}
		return
	}
	// Energies [0, min(ω, NE−ω)) have only the E+ω term, [ω, NE−ω) both
	// terms, [max(ω, NE−ω), NE) only the E−ω term.
	if hi := min(m, ne-m) * bl; hi > 0 {
		s := m * bl
		stencilOne(v0[:hi], v1[:hi], v2[:hi], p0[s:s+hi], p1[s:s+hi], p2[s:s+hi], wp)
	}
	if lo, hi := m*bl, (ne-m)*bl; hi > lo {
		n, s := hi-lo, 2*m*bl
		stencilBoth(v0[lo:hi], v1[lo:hi], v2[lo:hi], p0[:n], p1[:n], p2[:n], p0[s:s+n], p1[s:s+n], p2[s:s+n], wm, wp)
	}
	if lo, hi := max(m, ne-m)*bl, ne*bl; hi > lo {
		s := m * bl
		stencilOne(v0[lo:hi], v1[lo:hi], v2[lo:hi], p0[lo-s:hi-s], p1[lo-s:hi-s], p2[lo-s:hi-s], wm)
	}
}

// stencilBoth is the two-sided stencil body: V_j[x] += wm_ij·m_i[x] then
// wp_ij·p_i[x] for i = 0, 1, 2. With AVX2 the packed body takes element
// pairs and the Go body only an odd last element.
func stencilBoth(v0, v1, v2, m0, m1, m2, p0, p1, p2 []complex128, wm, wp *weights) {
	n := len(v0)
	v1, v2 = v1[:n], v2[:n]
	m0, m1, m2 = m0[:n], m1[:n], m2[:n]
	p0, p1, p2 = p0[:n], p1[:n], p2[:n]
	if k := n &^ 1; useAVX2 && k > 0 {
		stencilBothAVX2(&v0[0], &v1[0], &v2[0], &m0[0], &m1[0], &m2[0], &p0[0], &p1[0], &p2[0], k, &wm.bc, &wp.bc)
		v0, v1, v2 = v0[k:], v1[k:], v2[k:]
		m0, m1, m2 = m0[k:], m1[k:], m2[k:]
		p0, p1, p2 = p0[k:], p1[k:], p2[k:]
	}
	stencilBothGo(v0, v1, v2, m0, m1, m2, p0, p1, p2, &wm.w, &wp.w)
}

// stencilBothGo is the scalar two-sided body. The V_j stay in registers
// across the six terms of each direction and are stored once per element.
func stencilBothGo(v0, v1, v2, m0, m1, m2, p0, p1, p2 []complex128, wm, wp *[9]complex128) {
	n := len(v0)
	v1, v2 = v1[:n], v2[:n]
	m0, m1, m2 = m0[:n], m1[:n], m2[:n]
	p0, p1, p2 = p0[:n], p1[:n], p2[:n]
	for x := range v0 {
		a, b, c := v0[x], v1[x], v2[x]
		lm, lp := m0[x], p0[x]
		a += wm[0] * lm
		a += wp[0] * lp
		b += wm[1] * lm
		b += wp[1] * lp
		c += wm[2] * lm
		c += wp[2] * lp
		lm, lp = m1[x], p1[x]
		a += wm[3] * lm
		a += wp[3] * lp
		b += wm[4] * lm
		b += wp[4] * lp
		c += wm[5] * lm
		c += wp[5] * lp
		lm, lp = m2[x], p2[x]
		a += wm[6] * lm
		a += wp[6] * lp
		b += wm[7] * lm
		b += wp[7] * lp
		c += wm[8] * lm
		c += wp[8] * lp
		v0[x], v1[x], v2[x] = a, b, c
	}
}

// stencilOne is the one-sided stencil body at the grid edges:
// V_j[x] += w_ij·q_i[x] for i = 0, 1, 2, packed like stencilBoth.
func stencilOne(v0, v1, v2, q0, q1, q2 []complex128, w *weights) {
	n := len(v0)
	v1, v2 = v1[:n], v2[:n]
	q0, q1, q2 = q0[:n], q1[:n], q2[:n]
	if k := n &^ 1; useAVX2 && k > 0 {
		stencilOneAVX2(&v0[0], &v1[0], &v2[0], &q0[0], &q1[0], &q2[0], k, &w.bc)
		v0, v1, v2 = v0[k:], v1[k:], v2[k:]
		q0, q1, q2 = q0[k:], q1[k:], q2[k:]
	}
	stencilOneGo(v0, v1, v2, q0, q1, q2, &w.w)
}

// stencilOneGo is the scalar one-sided body.
func stencilOneGo(v0, v1, v2, q0, q1, q2 []complex128, w *[9]complex128) {
	n := len(v0)
	v1, v2 = v1[:n], v2[:n]
	q0, q1, q2 = q0[:n], q1[:n], q2[:n]
	for x := range v0 {
		a, b, c := v0[x], v1[x], v2[x]
		l := q0[x]
		a += w[0] * l
		b += w[1] * l
		c += w[2] * l
		l = q1[x]
		a += w[3] * l
		b += w[4] * l
		c += w[5] * l
		l = q2[x]
		a += w[6] * l
		b += w[7] * l
		c += w[8] * l
		v0[x], v1[x], v2[x] = a, b, c
	}
}

// gramRun adds the traces S_ij += tr(X_i(E+ω)·Y_j(E)) for count energies
// of the runs X_i = x(i, ikx) from energy ex and Y_j = y(j, iky) from
// energy ey: one pass that reads each block once per energy. Every trace
// starts at zero and sums in (r, c) order before it joins S_ij, and the
// energies join in ascending order.
func gramRun(s *[9]complex128, x *transient, ikx, ex int, y *transient, iky, ey, count int) {
	n, bl := x.n, x.bl
	span := count * bl
	xo, yo := ex*bl, ey*bl
	var xs, ys [3][]complex128
	for i := range xs {
		xs[i] = x.eRow(i, ikx)[xo : xo+span]
		ys[i] = y.eRow(i, iky)[yo : yo+span]
	}
	if n == 2 {
		gram2(s, xs, ys)
		return
	}
	var z complex128
	for o := 0; o < span; o += bl {
		for i, xi := range xs {
			xb := xi[o : o+bl]
			for j, yj := range ys {
				yb := yj[o : o+bl]
				t := z
				for r := 0; r < n; r++ {
					for c, xv := range xb[r*n : (r+1)*n] {
						t += xv * yb[c*n+r]
					}
				}
				s[i*3+j] += t
			}
		}
	}
}

// gram2 is the Norb = 2 Gram body over equal-length runs of 2×2 blocks;
// with AVX2 the packed body takes energy pairs, then an odd last energy.
func gram2(s *[9]complex128, xs, ys [3][]complex128) {
	if count := len(xs[0]) / 4; useAVX2 && count > 0 {
		for i := range xs {
			_, _ = xs[i][4*count-1], ys[i][4*count-1]
		}
		gram2AVX2(s, &xs[0][0], &xs[1][0], &xs[2][0], &ys[0][0], &ys[1][0], &ys[2][0], count)
		return
	}
	gram2Go(s, xs, ys)
}

// gram2Go is the scalar Norb = 2 Gram body.
func gram2Go(s *[9]complex128, xs, ys [3][]complex128) {
	var z complex128
	span := len(xs[0])
	for o := 0; o < span; o += 4 {
		y0, y1, y2 := ys[0][o:o+4:o+4], ys[1][o:o+4:o+4], ys[2][o:o+4:o+4]
		for i, xi := range xs {
			xb := xi[o : o+4 : o+4]
			// Three independent trace chains, one per j.
			t0 := z + xb[0]*y0[0]
			t1 := z + xb[0]*y1[0]
			t2 := z + xb[0]*y2[0]
			t0 += xb[1] * y0[2]
			t1 += xb[1] * y1[2]
			t2 += xb[1] * y2[2]
			t0 += xb[2] * y0[1]
			t1 += xb[2] * y1[1]
			t2 += xb[2] * y2[1]
			t0 += xb[3] * y0[3]
			t1 += xb[3] * y1[3]
			t2 += xb[3] * y2[3]
			s[i*3] += t0
			s[i*3+1] += t1
			s[i*3+2] += t2
		}
	}
}

// fixedBRun is stages ❸–❹ for one energy run: c = V·B for every block
// of v (SBSMM with the fixed right operand B, c a scratch run as long as
// v), then each block adds s·c into the Σ≷ block stride elements after
// the previous one. At Norb = 2 with AVX2 one packed pass does both
// without c, in the same order.
func fixedBRun(dst []complex128, stride int, s complex128, v, b, c []complex128, n int) {
	if count := len(v) / 4; n == 2 && useAVX2 && count > 0 {
		_, _ = b[3], dst[(count-1)*stride+3]
		fixedB2AVX2(&dst[0], stride, s, &v[0], &b[0], count)
		return
	}
	fixedBRunGo(dst, stride, s, v, b, c, n)
}

// fixedBRunGo is the scalar stages ❸–❹: batch.SBSMMFixedB into the
// zeroed c, then scatterRun.
func fixedBRunGo(dst []complex128, stride int, s complex128, v, b, c []complex128, n int) {
	bl := n * n
	zero(c)
	batch.SBSMMFixedB(c, v, b, n, len(v)/bl)
	scatterRun(dst, s, c, stride, bl)
}

// scatterRun adds s·c into count consecutive-energy Σ≷ blocks of one
// (kz, atom): the blocks of c are contiguous, those of dst stride apart.
func scatterRun(dst []complex128, s complex128, c []complex128, stride, bl int) {
	for t := 0; t*bl < len(c); t++ {
		linalg.VecAXPY(dst[t*stride:t*stride+bl], s, c[t*bl:(t+1)*bl])
	}
}

func zero(v []complex128) {
	for i := range v {
		v[i] = 0
	}
}
