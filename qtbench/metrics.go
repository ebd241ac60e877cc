package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's vocabulary; BENCHMARK.json lists the same
// names and units, and the smoke test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced breakdown, one group per package the benchmark
// drives through its exported API.
var perLayer = []metricDef{
	{"sse.compute_ms", "ms"},
	{"sse.flops", "count"},
	{"sse.bytes", "bytes"},
	{"sse.flop_per_byte", "flop/byte"},
	{"sse.gflops", "GFLOP/s"},
	{"negf.iterations", "count"},
	{"negf.first_iter_ms", "ms"},
	{"negf.iter_ms", "ms"},
	{"negf.gf_ms", "ms"},
	{"negf.sse_ms", "ms"},
	{"negf.mix_ms", "ms"},
	{"bc.cold_ms", "ms"},
	{"bc.computes", "count"},
	{"bc.hit_ratio", "ratio"},
	{"rgf.el_point_us", "us"},
	{"rgf.ph_point_us", "us"},
	{"rgf.gflops", "GFLOP/s"},
	{"linalg.gf_flops", "count"},
	{"linalg.gf_gflops", "GFLOP/s"},
	{"dist.iter_ms", "ms"},
	{"dist.first_iter_ms", "ms"},
	{"dist.compute_ms", "ms"},
	{"dist.comm_ms", "ms"},
	{"comm.bytes_per_iter", "bytes"},
	{"comm.alltoallv_per_iter", "count"},
	{"comm.allreduce_per_iter", "count"},
	{"half.wire_ratio", "ratio"},
	{"half.fallback_blocks", "count"},
	{"half.encode_us", "us"},
	{"half.decode_us", "us"},
	{"qt.config_resolve_us", "us"},
	{"server.registry_put_us", "us"},
	{"obs.trace_overhead_ms", "ms"},
}

// series collects the samples of one metric. Timings are reported as the
// median of their samples; counts and ratios computed once have a single
// sample.
type series struct {
	vals []float64
}

// recorder gathers the samples of every metric of one run. Safe for
// concurrent use.
type recorder struct {
	mu sync.Mutex
	m  map[string]*series
}

func newRecorder() *recorder { return &recorder{m: map[string]*series{}} }

func (r *recorder) add(name string, vals ...float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.m[name]
	if s == nil {
		s = &series{}
		r.m[name] = s
	}
	s.vals = append(s.vals, vals...)
}

// addDur records durations converted to the metric's unit.
func (r *recorder) addDur(name string, scale time.Duration, ds ...time.Duration) {
	for _, d := range ds {
		r.add(name, float64(d)/float64(scale))
	}
}

// set replaces the metric's samples with one value.
func (r *recorder) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = &series{vals: []float64{v}}
}

func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.m[name]; s != nil {
		return append([]float64(nil), s.vals...)
	}
	return nil
}

// summary is one metric of the full result: the reported value with its
// sample count and the quartiles of its samples.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func (r *recorder) summarize(defs []metricDef) (map[string]summary, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]summary{}
	var missing []string
	for _, d := range defs {
		s := r.m[d.name]
		if s == nil || len(s.vals) == 0 {
			missing = append(missing, d.name)
			continue
		}
		q := quartiles(s.vals)
		out[d.name] = summary{Value: q[1], Unit: d.unit, N: len(s.vals), Q1: q[0], Median: q[1], Q3: q[2]}
	}
	return out, missing
}

// quartiles returns the three cut points of vals the way Python's
// statistics.quantiles(vals, n=4) computes them (exclusive method), with
// the middle one replaced by statistics.median.
func quartiles(vals []float64) [3]float64 {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		q[1] = d[n/2]
	} else {
		q[1] = (d[n/2-1] + d[n/2]) / 2
	}
	return q
}

// gate counts the benchmark's operations and the correctness checks they
// failed: a failed, refused, non-converged or check-failing operation is
// one failure.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// op records one operation; err == nil means every check passed.
func (g *gate) op(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.failures) < 20 {
			g.failures = append(g.failures, err.Error())
		}
	}
}

// host identifies the machine and build a result was measured on; the
// compare mode refuses to call a difference between two hosts a
// regression.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	OSArch     string `json:"os_arch"`
}

func currentHost() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev("."),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from dir/.git without running git,
// so the benchmark never looks outside its checkout. A checkout without
// .git (an exported tree) reports "unknown".
func gitRev(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set (Linux clear_refs "5"), so that peakRSSMB reads
// the peak of what runs after it.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// labelledCount sets a count the program executed next to the count a
// model predicts for it (Model empty: no model predicts it). Source says
// how the count was obtained: bytes
// are always computed from tensor shapes, never measured, and no
// roofline fraction is given because the host's peak rate and bandwidth
// are not measured in the same run.
type labelledCount struct {
	Counted   float64 `json:"counted"`
	Predicted float64 `json:"predicted,omitempty"`
	Source    string  `json:"source"`
	Model     string  `json:"model"`
}

// result is the full record of one run.
type result struct {
	Workload  string                   `json:"workload"`
	Seed      uint64                   `json:"seed"`
	Trace     bool                     `json:"trace"`
	Seconds   float64                  `json:"seconds"`
	Started   time.Time                `json:"started"`
	Host      host                     `json:"host"`
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	FailRatio float64                  `json:"fail_ratio"`
	Failures  []string                 `json:"failures,omitempty"`
	Metrics   map[string]summary       `json:"metrics"`
	Counts    map[string]labelledCount `json:"counts,omitempty"`
	TraceFile string                   `json:"trace_file,omitempty"`

	defs []metricDef
	out  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the one-line summary the benchmark prints last.
func (r *result) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for name, s := range r.Metrics {
		l.Metrics[name] = metricValue{Value: s.Value, Unit: s.Unit}
	}
	return l
}

func (r *result) writeTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  %.1fs measured  host %s, nproc %d, GOMAXPROCS %d, %s, rev %s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GitRev)
	fmt.Fprintf(w, "  %-28s %14s %-10s %6s %14s %14s\n", "metric", "value", "unit", "n", "q1", "q3")
	for _, d := range r.defs {
		s := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %-10s %6d %14.6g %14.6g\n", d.name, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-10s (%d of %d operations failed)\n", "fail_ratio", r.FailRatio, "ratio", r.Failed, r.Attempted)
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.Counts[n]
		if c.Model == "" {
			fmt.Fprintf(w, "  count %-22s %14.6g %s; no model predicts it\n", n, c.Counted, c.Source)
			continue
		}
		fmt.Fprintf(w, "  count %-22s %14.6g %s; %s predicts %.6g\n", n, c.Counted, c.Source, c.Model, c.Predicted)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	if r.TraceFile != "" {
		fmt.Fprintln(w, "  trace:", r.TraceFile)
	}
}

// save writes the full result next to the others of its result set.
func (r *result) save() error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	name := fmt.Sprintf("%s-trace%d-seed%d-%s.json", r.Workload, b2i(r.Trace), r.Seed, r.Started.UTC().Format("20060102T150405.000"))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.out, name), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
