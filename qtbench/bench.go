package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/qt"
	"repro/internal/server"
	"repro/internal/sse"
)

// conservTol is the SCBA current-conservation tolerance of the negf
// conservation suite (scbaConservTol there): |I_L + I_R| / |I_L| of a
// converged self-consistent solve stays below it.
const conservTol = 3e-2

// minSolves is the fewest closed-loop solves a timed phase makes, however
// short its time budget.
const minSolves = 3

// workload is one benchmark input set. Every run is a process of its own
// that runs one workload, so process-global
// knobs such as linalg.SetBlocking, sse.SetWorkers and the linalg worker
// budget cannot leak from one workload into another.
type workload struct {
	name   string
	spec   qt.Spec     // the device; the seed fills Bias
	opts   []qt.Option // execution options of the measured solves
	kernel sse.Kernel  // the SSE kernel the measured solves run
	// mixedRef checks every solve against an untimed sequential fp64
	// reference within dist.MixedCurrentTol; otherwise repeated solves
	// must be bitwise identical.
	mixedRef  bool
	setupReps int // set-ups per run; setup_s is their median
	reps      int // repetitions of each per-layer micro-measurement
}

// sizes fixes the devices of the two workloads; the smoke test swaps in
// tiny ones.
type sizes struct {
	narrow, wide qt.Spec
	setupReps    int
	reps         int
}

var fullSizes = sizes{
	narrow:    qt.Spec{}, // the qt.Spec default device: 24 atoms, 6 slabs, Nkz 3, NE 24, Nω 4
	wide:      qt.Spec{Atoms: 48, Slabs: 3, PhononModes: 1},
	setupReps: 200,
	reps:      15,
}

// distOptions is the gf-wide-p2 execution: 2 simulated ranks, the
// pipelined schedule at depth 2, mixed precision.
func distOptions() []qt.Option {
	return []qt.Option{qt.WithRanks(2), qt.WithSchedule(qt.Pipeline), qt.WithPipelineDepth(2), qt.WithPrecision(qt.Mixed)}
}

// workloadByName returns one of the two solver workloads. There is no
// served (qtd) workload: server.submit pushes an admitted job onto the
// queue before it stores the job's record, and a worker that pops the job
// first finds no record and drops the run, which then stays "queued". Two
// closed-loop tenants on two idle slots hit that in a good share of runs,
// so a served workload cannot run without failed operations until submit
// stores the record first. The qtd costs every request pays are measured
// directly instead: config resolution (qt.config_resolve_us) and the
// registry write (server.registry_put_us).
func workloadByName(name string, sz sizes) (workload, bool) {
	switch name {
	case "scba-narrow":
		return workload{name: name, spec: sz.narrow, kernel: sse.DaCe{},
			setupReps: sz.setupReps, reps: sz.reps}, true
	case "gf-wide-p2":
		return workload{name: name, spec: sz.wide, opts: distOptions(),
			kernel: sse.Mixed{Normalize: true}, mixedRef: true,
			setupReps: sz.setupReps, reps: sz.reps}, true
	}
	return workload{}, false
}

// bench is one run of one workload.
type bench struct {
	w     workload
	seed  uint64
	dur   time.Duration
	trace bool
	out   string
	tmp   string // scratch for the registry, inside the output tree

	rec    *recorder
	gate   gate
	counts map[string]labelledCount

	t0      time.Time
	tr      *obs.Tracer // the benchmark's own spans (traced pass only)
	program []obs.Span  // program spans recorded by traced solves, on t0's clock
	// example is the registry record of the traced pass's first solve,
	// the payload of the registry measurement.
	example *server.Record

	// refScale multiplies every reference current; 1 except in the
	// smoke test, which proves a wrong reference is reported.
	refScale float64
}

func newBench(w workload, seed uint64, dur time.Duration, trace bool, out string) *bench {
	b := &bench{
		w: w, seed: seed, dur: dur, trace: trace, out: out,
		tmp: filepath.Join(out, "tmp"),
		rec: newRecorder(), counts: map[string]labelledCount{},
		t0: time.Now(), refScale: 1,
	}
	if trace {
		b.tr = obs.NewTracer()
	}
	return b
}

// rng derives the run's input stream from the seed; stream separates
// independent draws.
func (b *bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.seed, stream))
}

// bias is the solver workloads' operating point: 0.30 eV jittered by the
// seed within ±0.01 eV.
func (b *bench) bias() float64 {
	return 0.30 + 0.02*(b.rng(1).Float64()-0.5)
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.tmp)
	if err := b.solverWorkload(); err != nil {
		return nil, fmt.Errorf("%s: %w", b.w.name, err)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	// A metric can go unmeasured only when every operation feeding it
	// failed; the result then reports the failures instead.
	metrics, missing := b.rec.summarize(defs)
	if len(missing) > 0 && b.gate.failed == 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %v", b.w.name, missing)
	}
	res := &result{
		Workload: b.w.name, Seed: b.seed, Trace: b.trace,
		Seconds: b.dur.Seconds(), Started: b.t0, Host: currentHost(),
		Correct:   b.gate.failed == 0 && b.gate.attempted > 0,
		Attempted: b.gate.attempted, Failed: b.gate.failed,
		Failures: b.gate.failures, Metrics: metrics, Counts: b.counts,
		defs: defs, out: b.out,
	}
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	if b.trace {
		var err error
		if res.TraceFile, err = b.writeTrace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakDuring runs one operation from a collected heap returned to the OS
// and with the resident-set peak reset, and records the peak the
// operation reached as a peak_rss_mb sample: the peak per operation,
// whose median does not depend on when the collector happened to run.
func (b *bench) peakDuring(op func()) error {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	op()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.rec.add("peak_rss_mb", rss)
	return nil
}

// span records one benchmark span around a call into a layer; a no-op in
// the untraced pass.
func (b *bench) span(cat, name string, i, j int, start int64) {
	b.tr.End(benchRank, 0, cat, name, i, j, start)
}

// solve runs one closed-loop solve and returns its result and
// Start→Wait time. A failed solve is an error.
func solve(sim *qt.Simulation) (*qt.Result, time.Duration, error) {
	t := time.Now()
	run, err := sim.Start(context.Background())
	if err != nil {
		return nil, 0, err
	}
	res, err := run.Wait()
	d := time.Since(t)
	if err != nil {
		return nil, d, err
	}
	return res, d, nil
}

// checkConserved is the conservation gate |I_L + I_R| / |I_L|.
func checkConserved(il, ir float64) error {
	r := math.Abs(il+ir) / math.Abs(il)
	if !(r <= conservTol) {
		return fmt.Errorf("current not conserved: I_L=%g I_R=%g, |I_L+I_R|/|I_L|=%.3g > %g", il, ir, r, conservTol)
	}
	return nil
}

// checkSolve gates one in-process solve: converged and conserving.
func checkSolve(res *qt.Result) error {
	if !res.Converged {
		return fmt.Errorf("not converged after %d iterations", res.Iterations)
	}
	if res.Observables == nil {
		return errors.New("no observables")
	}
	return checkConserved(res.Observables.CurrentL, res.Observables.CurrentR)
}

// checkMixed compares a mixed-precision current with its fp64 reference.
func checkMixed(cur, ref float64) error {
	if e := math.Abs(cur-ref) / math.Abs(ref); !(e <= dist.MixedCurrentTol) {
		return fmt.Errorf("current %.10g vs fp64 reference %.10g: relative error %.3g > MixedCurrentTol %g", cur, ref, e, dist.MixedCurrentTol)
	}
	return nil
}

// checkBitwise compares a repeated fp64 current with the first one.
func checkBitwise(cur, ref float64) error {
	if math.Float64bits(cur) != math.Float64bits(ref) {
		return fmt.Errorf("current %.17g differs from the reference %.17g", cur, ref)
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(vals []float64) float64 { return quartiles(vals)[1] }
