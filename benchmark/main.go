// Command benchmark is the DASSA benchmark: five workloads, each reporting
// the end-to-end metrics a user of the system would see and, in a separate
// traced pass, per-layer metrics reduced from spans recorded around the
// calls into each layer. BENCHMARK.json at the repository root names every
// metric and the workloads the driver runs; README.md in this directory
// explains them.
//
//	go run ./benchmark -workload serve_mixed -seed 12 -seconds 10 -trace 0
//	go run ./benchmark -workload all -trace 1 -out layers.json
//	go run ./benchmark -check a.json b.json
//
// It drives the system only through public functions and the HTTP API, and
// claims no gain: it is the ruler later claims are measured with.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the committed baselines were measured at.
const defaultSeed = 12

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	dir      string
	out      string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome; its JSON is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what -out writes and -check reads.
type resultFile struct {
	Schema    string            `json:"schema"`
	Traced    bool              `json:"traced"`
	Env       envBlock          `json:"env"`
	Workloads map[string]result `json:"workloads"`
	// Samples describes the latency sample behind each workload's
	// percentiles, by operation class: its size and its shape.
	Samples map[string]map[string]sampleStats `json:"samples"`
}

// sampleStats is one operation class's latency sample in a window.
type sampleStats struct {
	N     int     `json:"n"`
	MinMS float64 `json:"min_ms"`
	P10MS float64 `json:"p10_ms"`
	P25MS float64 `json:"p25_ms"`
	P50MS float64 `json:"p50_ms"`
	P75MS float64 `json:"p75_ms"`
	P95MS float64 `json:"p95_ms"`
	MaxMS float64 `json:"max_ms"`
}

const schemaName = "dassa-benchmark/1"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "one of "+strings.Join(implemented, ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced layer walk and per-layer metrics")
	scaleName := fs.String("scale", "full", "dataset scale: full or smoke")
	dir := fs.String("dir", ".benchmark_tmp", "scratch root; created, and removed on exit")
	out := fs.String("out", "", "also write the results (and, traced, trace.json beside them) to this file")
	check := fs.Bool("check", false, "compare two result files: -check a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err, "(run from the repository root)")
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -check needs two result files")
			return 2
		}
		return checkFiles(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok || (*workload != "all" && !slices.Contains(implemented, *workload)) || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -scale %q, -workload %q or -trace %d\n", *scaleName, *workload, *trace)
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		scale: sc, dir: *dir, out: *out}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	file, err := runWorkloads(spec, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, r := range file.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runWorkloads runs the selected workloads one after another in this
// process, printing each one's metrics and then its result line.
func runWorkloads(spec *benchSpec, o options) (*resultFile, error) {
	if err := assertCleanProcess(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.dir)
	file := &resultFile{Schema: schemaName, Traced: o.traced, Env: newEnv(o.seed, o.seconds, o.scale),
		Workloads: map[string]result{}, Samples: map[string]map[string]sampleStats{}}
	var traces []*tracer
	// The layer microbenchmarks do not depend on the workload: one process
	// measures them once and every traced workload in it reports them.
	var layers map[string]float64
	for _, name := range implemented {
		if o.workload != "all" && o.workload != name {
			continue
		}
		baseline := runtime.NumGoroutine()
		res, samples, tr, err := runOne(spec, name, o, &layers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// Every server, worker and coordinator must be closed and joined
		// before the next workload starts.
		if err := settleGoroutines(baseline); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		file.Workloads[name] = res
		file.Samples[name] = samples
		if tr != nil {
			traces = append(traces, tr)
		}
		printResult(name, spec.metrics(o.traced), res)
	}
	if o.traced && o.out != "" {
		if err := writeTraces(filepath.Join(filepath.Dir(o.out), "trace.json"), traces); err != nil {
			return nil, err
		}
	}
	return file, nil
}

// printResult prints every metric by name with its unit, then the one-line
// JSON object the driver parses.
func printResult(name string, metrics []metricSpec, r result) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, m := range metrics {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// writeTraces stores every workload's spans in one file, span and operation
// ids renumbered so that they stay unique across workloads.
func writeTraces(path string, traces []*tracer) error {
	var all []span
	ops := 0
	for _, t := range traces {
		base, baseOp := len(all), ops
		ops += t.nextOp
		for _, sp := range t.spans {
			sp.ID += base
			sp.Op += baseOp
			if sp.Parent != 0 {
				sp.Parent += base
			}
			all = append(all, sp)
		}
	}
	raw, err := json.Marshal(map[string]any{"schema": schemaName, "spans": all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// workload is what the runner needs from each of the five.
type workload interface {
	// setup does everything that precedes a timed window: generate the
	// record, scan or ingest it, start servers and workers, warm up.
	setup() error
	// window measures for d. With a tracer it is the layer walk: each
	// walked operation gets a root span, the real end-to-end call under
	// it, then the same input replayed layer by layer.
	window(d time.Duration, tr *tracer) *window
	// primary is the operation class op_p50_ms describes.
	primary() string
	// gate checks, after a window, that the mechanism the workload exists
	// to exercise was in play (cache hits, wire traffic, evictions).
	gate(w *window) error
	teardown() error
}

// implemented lists the workloads the program can run, in the order "all"
// runs them. BENCHMARK.json names the ones the driver runs: batch_localsimi
// is left out there, so that the others get longer windows within the
// driver's total time; its detector is what every /detect of the serve
// workloads computes.
var implemented = []string{"batch_localsimi", "batch_interferometry", "serve_mixed", "serve_cluster", "ingest_stream"}

// newWorkload builds a workload rooted at root. traced runs also collect
// what would disturb an end-to-end number (allocation deltas).
func newWorkload(name string, sc scale, seed int64, root string, traced bool) workload {
	switch name {
	case "batch_localsimi":
		return newBatch(name, false, sc, seed, root, traced)
	case "batch_interferometry":
		return newBatch(name, true, sc, seed, root, traced)
	case "serve_mixed":
		return newServed(name, false, sc, seed, root)
	case "serve_cluster":
		return newServed(name, true, sc, seed, root)
	case "ingest_stream":
		return newIngest(name, sc, seed, root)
	}
	panic("benchmark: no workload " + name)
}

// metricSet collects values against the declared metric list: setting a
// name BENCHMARK.json does not declare is a bug, caught at once.
type metricSet struct {
	declared map[string]string // name → unit
	values   map[string]float64
}

func newMetricSet(metrics []metricSpec) *metricSet {
	m := &metricSet{declared: map[string]string{}, values: map[string]float64{}}
	for _, s := range metrics {
		m.declared[s.Name] = s.Unit
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.declared[name]; !ok {
		panic("benchmark: metric " + name + " is not declared in " + specFile)
	}
	m.values[name] = v
}

// result turns the set into the reported map. A per-layer metric a workload
// does not exercise reads 0; a non-finite value fails the run.
func (m *metricSet) result(w *window, gateErr error) (result, error) {
	r := result{Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metricValue{}}
	names := make([]string, 0, len(m.declared))
	for name := range m.declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m.values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", name, v)
		}
		r.Metrics[name] = metricValue{Value: v, Unit: m.declared[name]}
	}
	r.Correct = w.failed == 0 && gateErr == nil
	for _, why := range w.why {
		fmt.Fprintln(os.Stderr, "benchmark: failed operation:", why)
	}
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: failed gate:", gateErr)
	}
	return r, nil
}

func sampleCounts(w *window) map[string]sampleStats {
	out := map[string]sampleStats{}
	for class, xs := range w.lat {
		out[class] = sampleStats{N: len(xs), MinMS: percentile(xs, 0), P10MS: percentile(xs, 10),
			P25MS: percentile(xs, 25), P50MS: percentile(xs, 50), P75MS: percentile(xs, 75),
			P95MS: percentile(xs, 95), MaxMS: percentile(xs, 100)}
	}
	return out
}

// runOne measures one workload, end to end or traced.
func runOne(spec *benchSpec, name string, o options, layers *map[string]float64) (result, map[string]sampleStats, *tracer, error) {
	if o.traced {
		return runTraced(spec, name, o, layers)
	}
	res, samples, err := runEndToEnd(spec, name, o)
	return res, samples, nil, err
}

// runEndToEnd sets up SetupRepeats times — setup_s is the median, the last
// set-up is the one measured — and runs one window of the full length with
// tracing off, reduced to its quietest segment.
func runEndToEnd(spec *benchSpec, name string, o options) (result, map[string]sampleStats, error) {
	m := newMetricSet(spec.EndToEnd)
	var setups []float64
	var wl workload
	for i := 0; i < o.scale.SetupRepeats; i++ {
		if wl != nil {
			if err := wl.teardown(); err != nil {
				return result{}, nil, err
			}
		}
		wl = newWorkload(name, o.scale, o.seed, filepath.Join(o.dir, name), false)
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			_ = wl.teardown() // the set-up error is the one worth reporting
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	w := wl.window(time.Duration(o.seconds*float64(time.Second)), nil)
	p50, rate := w.quiet(wl.primary())
	m.set("setup_s", median(setups))
	m.set("op_p50_ms", p50)
	m.set("ops_s", rate)
	gate := wl.gate(w)
	if len(w.lat[wl.primary()]) == 0 {
		gate = fmt.Errorf("no successful %s operation", wl.primary())
	}
	if err := wl.teardown(); err != nil {
		return result{}, nil, err
	}
	res, err := m.result(w, gate)
	return res, sampleCounts(w), err
}

// runTraced sets up once and splits the time between a window with tracing
// off, the layer walk and the layer microbenchmarks.
func runTraced(spec *benchSpec, name string, o options, layers *map[string]float64) (result, map[string]sampleStats, *tracer, error) {
	m := newMetricSet(spec.PerLayer)
	wl := newWorkload(name, o.scale, o.seed, filepath.Join(o.dir, name), true)
	if err := wl.setup(); err != nil {
		_ = wl.teardown() // the set-up error is the one worth reporting
		return result{}, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	total := time.Duration(o.seconds * float64(time.Second))
	plain := wl.window(total*3/10, nil)
	tr := newTracer(name)
	walk := wl.window(total*4/10, tr)
	gate := perLayer(m, wl, plain, tr, total*3/10)
	if err := wl.teardown(); err != nil {
		return result{}, nil, nil, err
	}
	if *layers == nil {
		lm := newMetricSet(spec.PerLayer)
		if err := layerBenches(lm, o, filepath.Join(o.dir, "layers"), total*3/10); err != nil {
			return result{}, nil, nil, fmt.Errorf("layer microbenchmarks: %w", err)
		}
		*layers = lm.values
	}
	for name, v := range *layers {
		m.set(name, v)
	}
	if allocs := m.values["daslib.planned_allocs_op"]; allocs != 0 && gate == nil {
		gate = fmt.Errorf("the planned daslib kernels allocate %v times per call, want 0", allocs)
	}
	// Both windows count: a failure in either is a failed operation.
	walk.attempted += plain.attempted
	walk.failed += plain.failed
	walk.why = append(plain.why, walk.why...)
	res, err := m.result(walk, gate)
	return res, sampleCounts(plain), tr, err
}
