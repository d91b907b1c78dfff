package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The benchmark runs from the repository root, where BENCHMARK.json is.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// runSmoke runs every workload at smoke scale and returns the result file
// and the directory it (and, traced, trace.json) was written to.
func runSmoke(t *testing.T, traced string) (*resultFile, string) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	code := run([]string{"-scale", "smoke", "-seconds", "0.4",
		"-trace", traced, "-dir", filepath.Join(dir, "data"), "-out", out})
	if code != 0 {
		t.Fatalf("benchmark -trace %s exited %d", traced, code)
	}
	f, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	return f, dir
}

// TestSmoke runs every implemented workload untraced and traced and holds the
// program to BENCHMARK.json: every declared metric emitted once per
// workload, finite, with the declared unit, and nothing undeclared.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		if !slices.Contains(implemented, w.Name) {
			t.Errorf("%s names workload %q, which the program does not implement", specFile, w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}

	for _, traced := range []string{"0", "1"} {
		f, dir := runSmoke(t, traced)
		declared := spec.metrics(f.Traced)
		for _, name := range implemented {
			r, ok := f.Workloads[name]
			if !ok {
				t.Errorf("trace %s: workload %s did not run", traced, name)
				continue
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %s: %s: correct=%v failed=%d attempted=%d", traced, name, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("trace %s: %s emits %d metrics, %s declares %d", traced, name, len(r.Metrics), specFile, len(declared))
			}
			for _, m := range declared {
				v, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("trace %s: %s does not emit %s", traced, name, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("trace %s: %s: %s has unit %q, declared %q", traced, name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("trace %s: %s: %s = %v", traced, name, m.Name, v.Value)
				case !f.Traced && v.Value <= 0:
					t.Errorf("trace %s: %s: end-to-end metric %s = %v, must be positive", traced, name, m.Name, v.Value)
				}
			}
		}
		if f.Traced {
			checkMechanisms(t, f)
			checkTraceFile(t, filepath.Join(dir, "trace.json"))
		}
	}
}

// checkMechanisms holds the traced smoke run to the mechanism each workload
// exists to exercise.
func checkMechanisms(t *testing.T, f *resultFile) {
	t.Helper()
	value := func(workload, metric string) float64 { return f.Workloads[workload].Metrics[metric].Value }
	for _, c := range []struct {
		workload, metric string
		ok               func(float64) bool
		want             string
	}{
		{"serve_mixed", "serve.cache_hit_ratio", func(v float64) bool { return v >= 0.95 }, ">= 0.95"},
		{"serve_mixed", "wire.bytes_per_detect", func(v float64) bool { return v == 0 }, "0"},
		{"serve_cluster", "wire.bytes_per_detect", func(v float64) bool { return v > 0 }, "> 0"},
		{"serve_cluster", "cluster.shards_per_req", func(v float64) bool { return v >= 2 }, ">= 2"},
		{"ingest_stream", "serve.cache_evictions", func(v float64) bool { return v > 0 }, "> 0"},
		{"batch_localsimi", "daslib.planned_allocs_op", func(v float64) bool { return v == 0 }, "0"},
		{"batch_localsimi", "walk.coverage_ratio", func(v float64) bool { return v > 0.5 }, "> 0.5"},
		{"batch_interferometry", "walk.coverage_ratio", func(v float64) bool { return v > 0.5 }, "> 0.5"},
	} {
		if v := value(c.workload, c.metric); !c.ok(v) {
			t.Errorf("%s: %s = %v, want %s", c.workload, c.metric, v, c.want)
		}
	}
}

// checkTraceFile checks that the traced pass wrote parent-linked spans for
// every layer the walks go through.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	layers := map[string]bool{}
	for _, sp := range tf.Spans {
		byID[sp.ID] = sp
		layers[layerOf(sp.Name)] = true
	}
	for _, sp := range tf.Spans {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok || p.Op != sp.Op {
			t.Errorf("span %d %s: parent %d missing or of another operation", sp.ID, sp.Name, sp.Parent)
		}
	}
	for _, l := range []string{"e2e", "dasf", "dass", "arrayudf", "haee", "detect", "core", "serve", "cluster", "wire"} {
		if !layers[l] {
			t.Errorf("no %s span in any walk", l)
		}
	}
}

// TestCheck exercises -check: a file agrees with itself; a bounded metric
// pushed past its bound, or more failed operations, is reported.
func TestCheck(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	file := func(p50, opsPerSec float64, failed int) *resultFile {
		return &resultFile{Schema: schemaName, Workloads: map[string]result{
			"serve_mixed": {Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "op_p50_ms": {p50, "ms"}, "ops_s": {opsPerSec, "1/s"}}},
		}}
	}
	base := file(50, 60, 0)
	for _, c := range []struct {
		name  string
		other *resultFile
		want  int
	}{
		{"itself", base, 0},
		{"within the bound", file(55, 58, 0), 0},
		{"slower p50", file(70, 60, 0), 1},
		{"lower throughput", file(50, 40, 0), 1},
		{"more failed operations", file(50, 60, 3), 1},
	} {
		var buf bytes.Buffer
		if code := compare(&buf, spec, base, c.other); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, buf.String())
		}
	}
}
