package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/half"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/negf"
	"repro/internal/qt"
	"repro/internal/rgf"
	"repro/internal/server"
	"repro/internal/sse"
)

// timedKernel wraps an sse.Kernel to time each Compute and keep its
// arithmetic counters.
type timedKernel struct {
	sse.Kernel
	b     *bench
	iter  int
	last  time.Duration
	stats sse.Stats
}

func (k *timedKernel) Compute(in *sse.Input) *sse.Output {
	start := k.b.tr.Begin()
	t := time.Now()
	out := k.Kernel.Compute(in)
	k.last = time.Since(t)
	k.b.span("sse", "sse/kernel", k.iter, -1, start)
	k.stats = out.Stats
	return out
}

// layers is the per-layer suite on the workload's own device and
// configuration: config resolution (qt), cold boundary conditions (bc),
// warm point solves (rgf), a self-consistent loop the benchmark drives
// phase by phase (negf, sse, linalg), and the half-precision wire format
// on one iteration's G≷ payload (half).
func (b *bench) layers(sim *qt.Simulation) error {
	dev := sim.Device
	p := dev.P
	if err := b.resolveMetric(sim.Config()); err != nil {
		return err
	}
	hams := make([]*blocktri.Matrix, p.Nkz)
	for ik := range hams {
		hams[ik] = dev.Hamiltonian(ik)
	}
	dyns := make([]*blocktri.Matrix, p.Nqz())
	for iq := range dyns {
		dyns[iq] = dev.Dynamical(iq)
	}
	ps, err := b.coldBC(dev, hams, dyns)
	if err != nil {
		return err
	}
	if err := b.warmRGF(ps, hams, dyns); err != nil {
		return err
	}
	s, err := b.drivenLoop(dev)
	if err != nil {
		return err
	}
	b.wire(s)
	return nil
}

// resolveMetric times what every qtd submit pays before its cache is
// consulted: NewFromConfig on the request config, then its content key.
func (b *bench) resolveMetric(rc qt.RunConfig) error {
	for range b.w.reps {
		t := time.Now()
		sim, err := qt.NewFromConfig(rc)
		if err != nil {
			return fmt.Errorf("resolve config: %w", err)
		}
		if sim.Config().Key() == "" {
			return errors.New("resolve config: empty key")
		}
		b.rec.addDur("qt.config_resolve_us", time.Microsecond, time.Since(t))
	}
	return nil
}

// coldBC times serial PrepareElectronBC/PreparePhononBC over every grid
// point on a fresh cache, three times; the last warm PointSolver is
// returned for the RGF measurements.
func (b *bench) coldBC(dev *device.Device, hams, dyns []*blocktri.Matrix) (*negf.PointSolver, error) {
	var ps *negf.PointSolver
	for range 3 {
		ps = negf.NewPointSolver(dev, bc.CacheBC)
		t := time.Now()
		for _, pt := range negf.AllPairs(dev.P) {
			start := b.tr.Begin()
			if err := ps.PrepareElectronBC(hams[pt[0]], pt[0], pt[1]); err != nil {
				return nil, fmt.Errorf("electron BC %v: %w", pt, err)
			}
			b.span("bc", "bc/el", pt[0], pt[1], start)
		}
		for _, pt := range negf.AllPhononPoints(dev.P) {
			start := b.tr.Begin()
			if err := ps.PreparePhononBC(dyns[pt[0]], pt[0], pt[1]); err != nil {
				return nil, fmt.Errorf("phonon BC %v: %w", pt, err)
			}
			b.span("bc", "bc/ph", pt[0], pt[1], start)
		}
		b.rec.addDur("bc.cold_ms", time.Millisecond, time.Since(t))
	}
	_, misses := ps.BC.Stats()
	b.rec.set("bc.computes", float64(misses))
	return ps, nil
}

// warmRGF times serial electron and phonon point solves against warm
// boundary conditions (three sweeps each, per-point time of each sweep),
// and counts one electron sweep's GEMM flops against rgf.FlopEstimate.
func (b *bench) warmRGF(ps *negf.PointSolver, hams, dyns []*blocktri.Matrix) error {
	p := ps.Dev.P
	pairs, phPts := negf.AllPairs(p), negf.AllPhononPoints(p)
	elSweep := func() error {
		for _, pt := range pairs {
			start := b.tr.Begin()
			if _, err := ps.SolveElectronPoint(hams[pt[0]], pt[0], pt[1]); err != nil {
				return fmt.Errorf("electron point %v: %w", pt, err)
			}
			b.span("rgf", "rgf/el", pt[0], pt[1], start)
		}
		return nil
	}
	for range 3 {
		t := time.Now()
		if err := elSweep(); err != nil {
			return err
		}
		b.rec.add("rgf.el_point_us", float64(time.Since(t))/float64(time.Microsecond)/float64(len(pairs)))
		t = time.Now()
		for _, pt := range phPts {
			start := b.tr.Begin()
			if _, err := ps.SolvePhononPoint(dyns[pt[0]], pt[0], pt[1]); err != nil {
				return fmt.Errorf("phonon point %v: %w", pt, err)
			}
			b.span("rgf", "rgf/ph", pt[0], pt[1], start)
		}
		b.rec.add("rgf.ph_point_us", float64(time.Since(t))/float64(time.Microsecond)/float64(len(phPts)))
	}
	est := rgf.FlopEstimate(p.Na, p.Norb, p.Bnum)
	b.rec.set("rgf.gflops", est/(median(b.rec.samples("rgf.el_point_us"))*1e-6)/1e9)

	linalg.ResetFlops()
	linalg.EnableFlopCounting(true)
	err := elSweep()
	linalg.EnableFlopCounting(false)
	if err != nil {
		return err
	}
	b.counts["rgf.point_flops"] = labelledCount{
		Counted: float64(linalg.Flops()) / float64(len(pairs)), Predicted: est,
		Source: "linalg GEMM flop counter, one warm electron point (counted)",
		Model:  "rgf.FlopEstimate (dense block model)",
	}
	return nil
}

// drivenLoop runs the self-consistent loop phase by phase with the
// workload's SSE kernel behind a timing wrapper, to convergence: GFPhase
// (negf.gf_ms), SSEPhase (negf.sse_ms), the kernel inside it
// (sse.compute_ms) and the mixing remainder (negf.mix_ms). One extra GF
// phase with the GEMM flop counter on gives linalg.gf_flops.
func (b *bench) drivenLoop(dev *device.Device) (*negf.Solver, error) {
	const maxIter = 25
	tk := &timedKernel{Kernel: b.w.kernel, b: b}
	o := negf.DefaultOptions()
	o.Kernel = tk
	s := negf.New(dev, o)
	prev := math.NaN()
	converged := false
	var kernel []float64
	for it := 0; it < maxIter && !converged; it++ {
		tk.iter = it
		iterStart := b.tr.Begin()
		start := b.tr.Begin()
		t := time.Now()
		if err := s.GFPhase(); err != nil {
			return nil, fmt.Errorf("GF phase %d: %w", it, err)
		}
		b.rec.addDur("negf.gf_ms", time.Millisecond, time.Since(t))
		b.span("gf", "gf/phase", it, -1, start)
		start = b.tr.Begin()
		t = time.Now()
		s.SSEPhase()
		sseDur := time.Since(t)
		b.span("sse", "sse/phase", it, -1, start)
		b.span("iter", "iter", it, -1, iterStart)
		b.rec.addDur("negf.sse_ms", time.Millisecond, sseDur)
		b.rec.addDur("negf.mix_ms", time.Millisecond, sseDur-tk.last)
		kernel = append(kernel, msOf(tk.last))
		cur := s.Obs.CurrentL
		converged = it > 0 && math.Abs(cur-prev)/math.Max(math.Abs(cur), 1e-300) < o.Tol
		prev = cur
	}
	var err error
	if !converged {
		err = fmt.Errorf("driven loop: not converged in %d iterations", maxIter)
	} else {
		err = checkConserved(s.Obs.CurrentL, s.Obs.CurrentR)
	}
	b.gate.op(err)

	b.rec.add("sse.compute_ms", kernel...)
	st := tk.stats
	b.rec.set("sse.flops", float64(st.Flops))
	b.rec.set("sse.bytes", float64(st.BytesMoved))
	b.rec.set("sse.flop_per_byte", float64(st.Flops)/float64(st.BytesMoved))
	b.rec.set("sse.gflops", float64(st.Flops)/(median(kernel)*1e-3)/1e9)
	b.counts["sse.flops"] = labelledCount{
		Counted: float64(st.Flops), Predicted: model.SSEDaCeFlops(dev.P),
		Source: "sse.Stats.Flops of one " + b.w.kernel.Name() + " Compute (counted)",
		Model:  "model.SSEDaCeFlops",
	}
	b.counts["sse.bytes"] = labelledCount{
		Counted: float64(st.BytesMoved),
		Source:  "sse.Stats.BytesMoved (computed from tensor shapes, not measured)",
	}
	hits, misses := s.BC.Stats()
	b.rec.set("bc.hit_ratio", float64(hits)/float64(hits+misses))

	linalg.ResetFlops()
	linalg.EnableFlopCounting(true)
	gfErr := s.GFPhase()
	linalg.EnableFlopCounting(false)
	if gfErr != nil {
		return nil, fmt.Errorf("counted GF phase: %w", gfErr)
	}
	flops := float64(linalg.Flops())
	b.rec.set("linalg.gf_flops", flops)
	b.rec.set("linalg.gf_gflops", flops/(median(b.rec.samples("negf.gf_ms"))*1e-3)/1e9)
	b.counts["linalg.gf_flops"] = labelledCount{
		Counted: flops, Predicted: model.RGFFlops(dev.P),
		Source: "linalg GEMM flop counter over one warm GF phase (counted)",
		Model:  "model.RGFFlops (electron RGF only; phonon and BC not modelled)",
	}
	return s, nil
}

// wire times the half-precision wire format on one iteration's G≷
// payload, laid out the way the exchange packs it: per (point, atom) a
// segment of G< and G> blocks (2·Norb² values).
func (b *bench) wire(s *negf.Solver) {
	blk := s.Dev.P.Norb * s.Dev.P.Norb
	seg := 2 * blk
	payload := make([]complex128, 0, 2*len(s.GL.Data))
	for off := 0; off < len(s.GL.Data); off += blk {
		payload = append(payload, s.GL.Data[off:off+blk]...)
		payload = append(payload, s.GG.Data[off:off+blk]...)
	}
	var wire []complex128
	for i := range b.w.reps {
		start := b.tr.Begin()
		t := time.Now()
		wire = half.WireEncode(payload, seg)
		b.rec.addDur("half.encode_us", time.Microsecond, time.Since(t))
		b.span("exchange", "exchange/encode", i, -1, start)
		start = b.tr.Begin()
		t = time.Now()
		out := half.WireDecode(wire, seg)
		b.rec.addDur("half.decode_us", time.Microsecond, time.Since(t))
		b.span("exchange", "exchange/decode", i, -1, start)
		var err error
		if len(out) != len(payload) {
			err = fmt.Errorf("wire round trip: %d values, want %d", len(out), len(payload))
		}
		b.gate.op(err)
	}
	b.rec.set("half.wire_ratio", float64(len(wire))/float64(len(payload)))
}

// registryPut times Registry.Put of a workload-sized record — a finished
// run of the workload's configuration with its report, what qtd writes
// when a run ends — into a fresh on-disk registry.
func (b *bench) registryPut() error {
	if b.example == nil {
		return errors.New("registry put: no solve passed its checks")
	}
	dir, err := os.MkdirTemp(b.tmp, "registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg, err := server.OpenRegistry(dir)
	if err != nil {
		return err
	}
	rec := *b.example
	for range b.w.reps {
		rec.ID = reg.NewID()
		t := time.Now()
		if err := reg.Put(rec); err != nil {
			return fmt.Errorf("registry put: %w", err)
		}
		b.rec.addDur("server.registry_put_us", time.Microsecond, time.Since(t))
	}
	return nil
}
