package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qt"
)

// tinySizes shrink every workload to a few hundred milliseconds.
var tinySizes = sizes{
	narrow:    qt.Spec{Atoms: 6, Slabs: 3, MomentumPoints: 1, EnergyPoints: 8, PhononModes: 2},
	wide:      qt.Spec{Atoms: 6, Slabs: 3, MomentumPoints: 1, EnergyPoints: 8, PhononModes: 1},
	setupReps: 2,
	reps:      2,
}

func tinyRun(t *testing.T, name string, trace bool, refScale float64) *result {
	t.Helper()
	w, ok := workloadByName(name, tinySizes)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	b := newBench(w, 7, 200*time.Millisecond, trace, t.TempDir())
	b.refScale = refScale
	res, err := b.run()
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return res
}

// TestEveryMetricEmitted runs each workload of BENCHMARK.json at tiny
// sizes in both passes and checks that exactly the metrics it names are
// printed, each with its unit, that every operation passed its checks,
// and that the traced pass leaves a loadable trace.
func TestEveryMetricEmitted(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, wl.Name, trace, 1)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			line := res.line()
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %v: correct=%v attempted=%d failed=%d %v", wl.Name, trace, line.Correct, line.Attempted, line.Failed, res.Failures)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %v: metric %s not emitted", wl.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace %v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				checkTraceFile(t, res.TraceFile)
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := obs.ParseChrome(b)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		cats[ev.Cat] = true
	}
	for _, c := range []string{"bc", "rgf", "sse", "exchange", "reduce", "iter"} {
		if !cats[c] {
			t.Errorf("%s: no %q spans", path, c)
		}
	}
}

// TestWrongReferenceFails proves the correctness gate: a deliberately
// wrong reference current makes every workload report failures.
func TestWrongReferenceFails(t *testing.T) {
	for _, name := range []string{"scba-narrow", "gf-wide-p2"} {
		res := tinyRun(t, name, false, 1.5)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong reference: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4)
// and statistics.median, the rule the spread of a result set is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2}, [3]float64{2, 2, 2}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "solve_s", Better: "lower", Bound: 0.1}
	parent := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name     string
		change   []float64
		m        specMetric
		mismatch bool
		want     string
	}{
		{"regression", []float64{1.2, 1.21, 1.19}, lower, false, "REGRESSION"},
		{"better", []float64{0.8, 0.81}, lower, false, "better"},
		{"noise", []float64{1.005, 1.0}, lower, false, "within spread"},
		{"host", []float64{1.5}, lower, true, "host mismatch"},
		{"higher is better", []float64{0.8}, specMetric{Better: "higher", Bound: 0.1}, false, "REGRESSION"},
		{"unresolved", []float64{1.05}, specMetric{Better: "lower", Bound: 0.001}, false, "unresolved (spread exceeds bound)"},
	}
	for _, c := range cases {
		if got := verdict(c.m, parent, c.change, c.mismatch).label; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
