package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/qt"
)

// benchRank is the rank label of the benchmark's own spans in the trace
// file; program spans keep their solver ranks.
const benchRank = 63

// keepSpans moves a traced solve's program spans onto the benchmark's
// clock (the solve's tracer started when Start was called, off after t0)
// and keeps them for the trace file.
func (b *bench) keepSpans(res *qt.Result, off time.Duration) {
	if res.Spans == nil {
		return
	}
	for _, sp := range res.Spans.Spans {
		sp.Start += int64(off)
		b.program = append(b.program, sp)
	}
}

// writeTrace writes the traced pass as one Chrome trace-event JSON file
// (loadable in Perfetto): the benchmark's spans around its calls into
// each layer and the program spans of the traced solves it keeps.
func (b *bench) writeTrace() (string, error) {
	spans := append(b.tr.Trace().Spans, b.program...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	ct := (&obs.Trace{Spans: spans}).Chrome()
	for i, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Pid == benchRank+1 {
			ct.TraceEvents[i].Args = map[string]any{"name": "qtbench (benchmark spans)"}
		}
	}
	dir := filepath.Join(b.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(ct); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
