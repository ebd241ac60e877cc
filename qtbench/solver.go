package main

import (
	"fmt"
	"time"

	"repro/internal/qt"
	"repro/internal/report"
	"repro/internal/server"
)

// solverWorkload runs scba-narrow or gf-wide-p2: one closed-loop client
// making back-to-back in-process solves of one configuration, each run to
// convergence.
func (b *bench) solverWorkload() error {
	spec := b.w.spec
	spec.Bias = b.bias()
	sim, err := b.setup(spec)
	if err != nil {
		return err
	}
	check, err := b.reference(spec)
	if err != nil {
		return err
	}
	if !b.trace {
		_, times, err := b.solveLoop(sim, b.dur, check, false)
		if err != nil {
			return err
		}
		b.rec.add("solve_s", times...)
		return nil
	}

	// Traced pass: half the budget untraced, half with the program's
	// tracer on; the difference of the two medians is the overhead.
	results, plain, err := b.solveLoop(sim, b.dur/2, check, false)
	if err != nil {
		return err
	}
	simT, err := qt.New(spec, append(append([]qt.Option(nil), b.w.opts...), qt.WithTrace())...)
	if err != nil {
		return err
	}
	_, traced, err := b.solveLoop(simT, b.dur/2, check, true)
	if err != nil {
		return err
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil // every solve failed; the gate reports it
	}
	b.rec.set("obs.trace_overhead_ms", (median(traced)-median(plain))*1e3)
	b.iterationMetrics(results)
	if b.w.mixedRef {
		b.distMetrics(results)
	} else if err := b.distProbe(spec, results[0].Current); err != nil {
		return err
	}
	if err := b.layers(sim); err != nil {
		return err
	}
	return b.registryPut()
}

// setup times the user's set-up — device build and qt.New — setupReps
// times; setup_s is the median.
func (b *bench) setup(spec qt.Spec) (*qt.Simulation, error) {
	var sim *qt.Simulation
	for range b.w.setupReps {
		t := time.Now()
		s, err := qt.New(spec, b.w.opts...)
		if err != nil {
			return nil, err
		}
		b.rec.addDur("setup_s", time.Second, time.Since(t))
		sim = s
	}
	return sim, nil
}

// reference returns the per-solve correctness check. Mixed-precision
// solves are compared with an untimed sequential fp64 solve of the same
// spec, computed here; fp64 solves must repeat the run's first current
// bitwise.
func (b *bench) reference(spec qt.Spec) (func(*qt.Result) error, error) {
	if b.w.mixedRef {
		ref, err := qt.New(spec)
		if err != nil {
			return nil, err
		}
		res, _, err := solve(ref)
		if err != nil {
			return nil, fmt.Errorf("fp64 reference: %w", err)
		}
		b.gate.op(checkSolve(res))
		want := res.Current * b.refScale
		return func(r *qt.Result) error { return checkMixed(r.Current, want) }, nil
	}
	var want *float64
	return func(r *qt.Result) error {
		if want == nil {
			w := r.Current * b.refScale
			want = &w
		}
		return checkBitwise(r.Current, *want)
	}, nil
}

// solveLoop makes closed-loop solves for d (at least minSolves) and
// returns the results with their Start→Wait times in seconds. With keep
// set, the first result's program spans join the trace file.
func (b *bench) solveLoop(sim *qt.Simulation, d time.Duration, check func(*qt.Result) error, keep bool) ([]*qt.Result, []float64, error) {
	var results []*qt.Result
	var times []float64
	deadline := time.Now().Add(d)
	for i := 0; i < minSolves || time.Now().Before(deadline); i++ {
		off := time.Since(b.t0)
		var res *qt.Result
		var dur time.Duration
		var err error
		// Every solve starts from a collected heap, so the previous
		// solve's garbage is not charged to this one.
		if perr := b.peakDuring(func() {
			start := b.tr.Begin()
			res, dur, err = solve(sim)
			b.span("iter", "solve", i, -1, start)
		}); perr != nil {
			return nil, nil, perr
		}
		if err == nil {
			err = checkSolve(res)
		}
		if err == nil {
			err = check(res)
		}
		b.gate.op(err)
		if err != nil {
			continue // counted as failed; a failed solve gives no latency sample
		}
		if b.trace && b.example == nil {
			b.example = finishedRecord(sim, res, b.w.kernel.Name(), dur)
		}
		// Keep only the telemetry: retained Σ states and observables
		// would grow the heap with the run length and skew peak_rss_mb.
		res.FinalState, res.Observables = nil, nil
		results = append(results, res)
		times = append(times, dur.Seconds())
		if keep && i == 0 {
			b.keepSpans(res, off)
		}
	}
	return results, times, nil
}

// iterationMetrics reads the negf.* iteration counts and times from the
// solves' unified per-iteration telemetry.
func (b *bench) iterationMetrics(results []*qt.Result) {
	for _, r := range results {
		b.rec.add("negf.iterations", float64(r.Iterations))
		for i, st := range r.Trace {
			name := "negf.iter_ms"
			if i == 0 {
				name = "negf.first_iter_ms"
			}
			b.rec.add(name, float64(st.WallNs)/1e6)
		}
	}
}

// distMetrics reads the dist, comm and half counters of distributed
// solves: rank-0 iteration and task times, the world's communication
// counters per executed iteration, and the mixed wire's fallback blocks.
func (b *bench) distMetrics(results []*qt.Result) {
	for _, r := range results {
		var fallbacks float64
		for i, st := range r.Trace {
			name := "dist.iter_ms"
			if i == 0 {
				name = "dist.first_iter_ms"
			}
			b.rec.add(name, float64(st.WallNs)/1e6)
			b.rec.add("dist.compute_ms", float64(st.ComputeNs)/1e6)
			b.rec.add("dist.comm_ms", float64(st.CommNs)/1e6)
			fallbacks += float64(st.FallbackBlocks)
		}
		b.rec.add("half.fallback_blocks", fallbacks)
		if r.Comm != nil && r.Iterations > 0 {
			n := float64(r.Iterations)
			b.rec.add("comm.bytes_per_iter", float64(r.Comm.BytesSent)/n)
			b.rec.add("comm.alltoallv_per_iter", float64(r.Comm.Collectives["Alltoallv"])/n)
			b.rec.add("comm.allreduce_per_iter", float64(r.Comm.Collectives["Allreduce"])/n)
		}
	}
}

// distProbe runs the gf-wide-p2 execution (2 ranks, pipeline, mixed) once
// on a workload that does not distribute, so its dist/comm/half metrics
// describe this workload's device. The probe is traced: its exchange and
// reduce spans join the trace file.
func (b *bench) distProbe(spec qt.Spec, fp64Current float64) error {
	sim, err := qt.New(spec, append(distOptions(), qt.WithTrace())...)
	if err != nil {
		return err
	}
	off := time.Since(b.t0)
	start := b.tr.Begin()
	res, _, err := solve(sim)
	b.span("iter", "dist-probe", -1, -1, start)
	if err == nil {
		err = checkSolve(res)
	}
	if err == nil {
		err = checkMixed(res.Current, fp64Current*b.refScale)
	}
	b.gate.op(err)
	if res == nil {
		return fmt.Errorf("dist probe: %w", err)
	}
	b.keepSpans(res, off)
	b.distMetrics([]*qt.Result{res})
	return nil
}

// finishedRecord is the registry record qtd keeps for a finished run: the
// resolved configuration, the run's summary and its full report.
func finishedRecord(sim *qt.Simulation, res *qt.Result, kernel string, wall time.Duration) *server.Record {
	rc := sim.Config()
	end := time.Now().UTC()
	return &server.Record{
		Tenant: "qtbench", Key: rc.Key(), WarmKey: rc.WarmKey(), Config: rc,
		Status: server.StatusDone, Submitted: end.Add(-wall), Started: end.Add(-wall), Finished: end,
		Converged: res.Converged, Iterations: res.Iterations, Current: res.Current, WallNs: wall.Nanoseconds(),
		Report: report.NewRun(sim, res, kernel, wall.Nanoseconds()),
	}
}
