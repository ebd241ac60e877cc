package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadResults reads every result file of one result set.
func loadResults(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// hostKey is what must match for two runs to be comparable: the host
// block (the git revision is what differs on purpose) and the run length.
func hostKey(r result) string {
	h := r.Host
	return fmt.Sprintf("%s|%d|%d|%s|%s|%gs", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, r.Seconds)
}

// compareMain prints, per workload and metric, the change's median
// against the parent's median and quartile spread:
//
//	qtbench compare [-spec BENCHMARK.json] <parent-dir> <change-dir>
//
// An end-to-end metric whose parent spread exceeds its bound is
// "unresolved" unless every change run beats every parent run; a
// difference between hosts or run lengths is reported as a mismatch,
// never as a regression. Exits non-zero when a regression is found.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: qtbench compare [-spec BENCHMARK.json] <parent-dir> <change-dir>")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	parent, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	regressions := 0
	for _, g := range groups(parent, change) {
		ps, cs := g.parent, g.change
		fmt.Fprintf(w, "%s (trace %d): parent %d runs, change %d runs", g.workload, b2i(g.trace), len(ps), len(cs))
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintln(w, "  (not in both sets)")
			continue
		}
		mismatch := hostKeys(ps) != hostKeys(cs)
		if mismatch {
			fmt.Fprintf(w, "  HOST OR RUN-LENGTH MISMATCH: parent %s, change %s", hostKeys(ps), hostKeys(cs))
		}
		fmt.Fprintln(w)
		metrics := spec.EndToEnd
		if g.trace {
			metrics = spec.PerLayer
		}
		fmt.Fprintf(w, "  %-28s %-9s %12s %12s %12s %8s %8s  %s\n", "metric", "unit", "parent", "change", "Δ", "spread", "bound", "verdict")
		for _, m := range metrics {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "  %-28s %-9s missing (parent %d, change %d values)\n", m.Name, m.Unit, len(pv), len(cv))
				continue
			}
			v := verdict(m, pv, cv, mismatch)
			if v.label == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "  %-28s %-9s %12.6g %12.6g %+11.2f%% %7.2f%% %8s  %s\n",
				m.Name, m.Unit, v.parent, v.change, 100*v.delta, 100*v.spread, boundString(m), v.label)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond their bounds", regressions)
	}
	return nil
}

type group struct {
	workload       string
	trace          bool
	parent, change []result
}

func groups(parent, change []result) []group {
	idx := map[string]*group{}
	var keys []string
	add := func(rs []result, isParent bool) {
		for _, r := range rs {
			k := fmt.Sprintf("%s|%v", r.Workload, r.Trace)
			g := idx[k]
			if g == nil {
				g = &group{workload: r.Workload, trace: r.Trace}
				idx[k] = g
				keys = append(keys, k)
			}
			if isParent {
				g.parent = append(g.parent, r)
			} else {
				g.change = append(g.change, r)
			}
		}
	}
	add(parent, true)
	add(change, false)
	sort.Strings(keys)
	out := make([]group, 0, len(keys))
	for _, k := range keys {
		out = append(out, *idx[k])
	}
	return out
}

func hostKeys(rs []result) string {
	seen := map[string]bool{}
	var ks []string
	for _, r := range rs {
		if k := hostKey(r); !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return fmt.Sprint(ks)
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if s, ok := r.Metrics[name]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

func boundString(m specMetric) string {
	if m.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*m.Bound)
}

type comparison struct {
	parent, change, delta, spread float64
	label                         string
}

// verdict applies the comparison rule to one metric. worse is the
// relative change in the metric's bad direction.
func verdict(m specMetric, pv, cv []float64, hostMismatch bool) comparison {
	q := quartiles(pv)
	c := comparison{parent: q[1], change: median(cv)}
	scale := math.Abs(q[1])
	if scale == 0 {
		scale = 1
	}
	c.delta = (c.change - c.parent) / scale
	c.spread = (q[2] - q[0]) / scale
	worse := c.delta
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case hostMismatch:
		c.label = "host mismatch"
	case c.delta == 0:
		c.label = "same"
	case m.Bound > 0 && c.spread > m.Bound && !separated(m, pv, cv):
		c.label = "unresolved (spread exceeds bound)"
	case m.Bound > 0 && worse > m.Bound:
		c.label = "REGRESSION"
	case math.Abs(c.delta) <= c.spread:
		c.label = "within spread"
	case worse < 0:
		c.label = "better"
	default:
		c.label = "worse"
	}
	return c
}

// separated reports whether every change run is better than every
// parent run.
func separated(m specMetric, pv, cv []float64) bool {
	pMin, pMax := minMax(pv)
	cMin, cMax := minMax(cv)
	if m.Better == "higher" {
		return cMin > pMax
	}
	return cMax < pMin
}

func minMax(v []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
