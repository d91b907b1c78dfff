package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaName)
	}
	return &f, nil
}

// checkFiles compares result file b against base a, metric by metric,
// against the bounds in BENCHMARK.json. It prints one row per (workload,
// metric) with both values and the ratio b÷a, and returns 1 when a bounded
// metric got worse by more than its bound or b's failed-operation share is
// higher. Count metrics that differ are flagged in their row.
func checkFiles(out io.Writer, spec *benchSpec, aPath, bPath string) int {
	a, err := loadResults(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadResults(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if a.Traced != b.Traced {
		fmt.Fprintf(os.Stderr, "benchmark: %s and %s are not the same kind of run (traced %v vs %v)\n", aPath, bPath, a.Traced, b.Traced)
		return 2
	}
	return compare(out, spec, a, b)
}

func compare(out io.Writer, spec *benchSpec, a, b *resultFile) int {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(out, "%-22s %-34s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, name := range names {
		ra := a.Workloads[name]
		rb, ok := b.Workloads[name]
		if !ok {
			fmt.Fprintf(out, "%-22s missing from b\n", name)
			bad++
			continue
		}
		for _, ms := range spec.metrics(a.Traced) {
			va, vb := ra.Metrics[ms.Name].Value, rb.Metrics[ms.Name].Value
			verdict := "ok"
			worse := ratio(vb-va, va) // share of a by which b is higher
			if ms.Better == "higher" {
				worse = -worse
			}
			switch {
			case ms.Bound > 0 && worse > ms.Bound:
				verdict = fmt.Sprintf("WORSE by %.1f%% of a (bound %.0f%%)", worse*100, ms.Bound*100)
				bad++
			case ms.Unit == "count" && va != vb:
				// Counts are reported, not gated: several depend on how
				// many operations fit the window.
				verdict = "count differs"
			case ms.Bound == 0:
				verdict = "-"
			}
			fmt.Fprintf(out, "%-22s %-34s %14.4f %14.4f %9.4f  %s\n", name, ms.Name, va, vb, ratio(vb, va), verdict)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "ok"
		if fb > fa {
			verdict = "MORE FAILURES"
			bad++
		}
		fmt.Fprintf(out, "%-22s %-34s %14.4f %14.4f %9s  %s\n", name, "failed_operation_share", fa, fb, "", verdict)
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d regression(s)\n", bad)
		return 1
	}
	return 0
}
