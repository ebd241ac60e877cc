// Command qtbench is the repository benchmark: two closed-loop workloads
// over the exported layers of the transport stack, each run in a fresh
// process, with an untraced end-to-end pass and a traced per-layer pass.
//
//	qtbench --workload scba-narrow --seed 1 --seconds 45 --trace 0
//	qtbench compare <parent-results-dir> <change-results-dir>
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (see
// BENCHMARK.json). A human-readable table goes to standard error, and the
// full result — host block, seed, every metric's sample count and
// quartiles, the labelled flop/byte counts — is written as JSON under
// --out, which the compare mode reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "qtbench compare:", err)
			os.Exit(2)
		}
		return
	}
	workload := flag.String("workload", "", "workload name: scba-narrow or gf-wide-p2")
	seedStr := flag.String("seed", "1", "workload seed (unsigned integer)")
	seconds := flag.Int("seconds", 45, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end pass; 1: traced per-layer pass")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the full JSON results and traces")
	flag.Parse()

	seed, err := strconv.ParseUint(*seedStr, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtbench: --seed %q: want an unsigned integer\n", *seedStr)
		os.Exit(2)
	}
	w, ok := workloadByName(*workload, fullSizes)
	if !ok {
		fmt.Fprintf(os.Stderr, "qtbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "qtbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b := newBench(w, seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtbench:", err)
		os.Exit(1)
	}
	res.writeTable(os.Stderr)
	if err := res.save(); err != nil {
		fmt.Fprintln(os.Stderr, "qtbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
