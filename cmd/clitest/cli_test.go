// Package clitest drives the command-line tools end to end: it builds the
// real binaries and runs the workflow a user would (generate → info →
// search/merge → analyze → bench), asserting on their output.
package clitest

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dassa/internal/core"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// buildOnce compiles all binaries into a shared temp dir.
var (
	buildMu  sync.Mutex
	binDir   string
	buildErr error
)

func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	if binDir != "" || buildErr != nil {
		if buildErr != nil {
			t.Fatal(buildErr)
		}
		return binDir
	}
	//dassalint:ignore lockio once-per-process binary build; the lock is the build singleflight
	dir, err := os.MkdirTemp("", "dassa-bin")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"dassa/cmd/das_gen", "dassa/cmd/das_search", "dassa/cmd/das_info",
		"dassa/cmd/das_analyze", "dassa/cmd/das_bench", "dassa/cmd/dassd",
		"dassa/cmd/dassw")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		buildErr = err
		t.Fatalf("go build: %v\n%s", err, out)
	}
	binDir = dir
	return binDir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/clitest → repo root
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	data := t.TempDir()

	// Generate a small acquisition.
	out := run(t, "das_gen", "-dir", data, "-channels", "16", "-rate", "50",
		"-seconds", "2", "-files", "6", "-events", "fig10")
	if !strings.Contains(out, "wrote 6 files") {
		t.Fatalf("das_gen output: %s", out)
	}

	// Inspect one file.
	files, err := filepath.Glob(filepath.Join(data, "*.dasf"))
	if err != nil || len(files) != 6 {
		t.Fatalf("generated files: %v %v", files, err)
	}
	out = run(t, "das_info", files[0])
	for _, want := range []string{"kind: data", "16 channels", "SamplingFrequency(HZ) : 50"} {
		if !strings.Contains(out, want) {
			t.Errorf("das_info missing %q in:\n%s", want, out)
		}
	}

	// The same metadata as JSON (the dassd /status?file= shape).
	out = run(t, "das_info", "-json", files[0])
	var infoDoc struct {
		Kind        string         `json:"kind"`
		NumChannels int            `json:"num_channels"`
		Global      map[string]any `json:"global"`
	}
	if err := json.Unmarshal([]byte(out), &infoDoc); err != nil {
		t.Fatalf("das_info -json: %v\n%s", err, out)
	}
	if infoDoc.Kind != "data" || infoDoc.NumChannels != 16 {
		t.Errorf("das_info -json content: %+v", infoDoc)
	}
	if rate, ok := infoDoc.Global["SamplingFrequency(HZ)"].(float64); !ok || rate != 50 {
		t.Errorf("das_info -json global rate: %v", infoDoc.Global)
	}

	// Search + merge into a VCA.
	vca := filepath.Join(t.TempDir(), "merged.dasf")
	out = run(t, "das_search", "-dir", data, "-s", "170620100545", "-c", "4", "-vca", vca)
	if !strings.Contains(out, "4 match") || !strings.Contains(out, "created VCA") {
		t.Fatalf("das_search output: %s", out)
	}
	// Second search hits the index cache (0 header reads).
	out = run(t, "das_search", "-dir", data)
	if !strings.Contains(out, "(0 header reads") {
		t.Errorf("warm search should use the index: %s", out)
	}

	out = run(t, "das_info", vca)
	if !strings.Contains(out, "kind: vca") || !strings.Contains(out, "members (4)") {
		t.Errorf("das_info on VCA:\n%s", out)
	}

	// Analyze: local similarity over the VCA.
	simOut := filepath.Join(t.TempDir(), "sim.dasf")
	out = run(t, "das_analyze", "-in", vca, "-op", "localsimi",
		"-nodes", "2", "-cores", "2", "-M", "10", "-stride", "5", "-out", simOut)
	if !strings.Contains(out, "detected") || !strings.Contains(out, "phases:") {
		t.Fatalf("das_analyze output: %s", out)
	}
	// One measurement, one line: the phases, each the slowest rank's.
	if n := strings.Count(out, "phases:"); n != 1 || strings.Contains(out, "breakdown:") {
		t.Errorf("das_analyze prints %d phases: lines (want 1) and a breakdown: line %v:\n%s",
			n, strings.Contains(out, "breakdown:"), out)
	}
	if _, err := os.Stat(simOut); err != nil {
		t.Errorf("similarity map not written: %v", err)
	}

	// Analyze: interferometry in pure-MPI mode.
	out = run(t, "das_analyze", "-in", vca, "-op", "interferometry",
		"-mode", "mpi", "-nodes", "1", "-cores", "2", "-maxlag", "20")
	if !strings.Contains(out, "noise correlations") {
		t.Fatalf("interferometry output: %s", out)
	}

	// Analyze: windowed+stacked interferometry.
	out = run(t, "das_analyze", "-in", vca, "-op", "stacked",
		"-nodes", "1", "-cores", "2", "-maxlag", "15", "-window", "100")
	if !strings.Contains(out, "stacked noise correlations") || !strings.Contains(out, "windows") {
		t.Fatalf("stacked output: %s", out)
	}

	// Analyze: the STA/LTA baseline trigger.
	out = run(t, "das_analyze", "-in", vca, "-op", "stalta", "-nodes", "1", "-cores", "2")
	if !strings.Contains(out, "STA/LTA map") || !strings.Contains(out, "max ratio") {
		t.Fatalf("stalta output: %s", out)
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	out := run(t, "das_bench", "-exp", "table1", "-dir", dir,
		"-channels", "16", "-files", "4", "-rate", "50", "-seconds", "1")
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "VCA") {
		t.Fatalf("das_bench output: %s", out)
	}

	// Machine-readable results land in the -json file.
	jsonPath := filepath.Join(t.TempDir(), "results.json")
	run(t, "das_bench", "-exp", "table1", "-dir", dir,
		"-channels", "16", "-files", "4", "-rate", "50", "-seconds", "1",
		"-json", jsonPath)
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Suite  string `json:"suite"`
		Params struct {
			Channels int `json:"channels"`
		} `json:"params"`
		Experiments []struct {
			Name string `json:"name"`
			Rows any    `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("das_bench -json: %v\n%s", err, raw)
	}
	if rep.Suite != "dassa-bench" || rep.Params.Channels != 16 ||
		len(rep.Experiments) != 1 || rep.Experiments[0].Name != "table1" ||
		rep.Experiments[0].Rows == nil {
		t.Fatalf("das_bench -json content: %+v", rep)
	}
}

// TestCLIAnalyzeIsTheRegistry: das_analyze has no definition of an analysis
// of its own. At explicit parameters it prints the event list
// core.LocalSimilarity returns for them and writes the map core.Run computes;
// with no parameter flag at all it runs every op at the registry's defaults —
// the ones dassd's /detect uses — bit for bit.
func TestCLIAnalyzeIsTheRegistry(t *testing.T) {
	data := t.TempDir()
	run(t, "das_gen", "-dir", data, "-channels", "24", "-rate", "50",
		"-seconds", "2", "-files", "6", "-events", "fig10")
	vca := filepath.Join(t.TempDir(), "merged.dasf")
	run(t, "das_search", "-dir", data, "-vca", vca)
	v, err := dass.OpenView(vca)
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	rate := v.Info().SampleRate()
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2})

	opt := core.LocalSimiOptions{LocalSimiParams: detect.LocalSimiParams{M: 10, K: 2, L: 3, Stride: 5}}
	sim, regions, _, err := fw.LocalSimilarity(v, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) == 0 {
		t.Fatal("the fixture has no events: the comparison below would be empty")
	}
	want := fmt.Sprintf("detected %d events:\n", len(regions))
	secPerIdx := float64(nt) / rate / float64(sim.Samples)
	for _, r := range regions {
		want += fmt.Sprintf("  t=[%.1fs,%.1fs) channels=[%d,%d) peak=%.3f\n",
			float64(r.TLo)*secPerIdx, float64(r.THi)*secPerIdx, r.ChLo, r.ChHi, r.Peak)
	}
	out := run(t, "das_analyze", "-in", vca, "-op", "localsimi", "-M", "10", "-K", "2", "-L", "3", "-stride", "5")
	if !strings.Contains(out, want) {
		t.Errorf("das_analyze prints\n%s\nwant the events core.LocalSimilarity returns:\n%s", out, want)
	}

	for _, op := range detect.Ops() {
		p := op.Default(rate, nt)
		if err := p.Validate(nch, nt); err != nil {
			t.Fatalf("%s defaults do not fit the fixture: %v", op.Name, err)
		}
		wantMap, _, err := fw.Run(v, p, "")
		if err != nil {
			t.Fatal(err)
		}
		outPath := filepath.Join(t.TempDir(), op.Name+".dasf")
		run(t, "das_analyze", "-in", vca, "-op", op.Name, "-nodes", "2", "-cores", "1", "-out", outPath)
		res, err := dass.OpenView(outPath)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := res.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Channels != wantMap.Channels || got.Samples != wantMap.Samples {
			t.Fatalf("%s at default flags: %d×%d, registry defaults give %d×%d", op.Name, got.Channels, got.Samples, wantMap.Channels, wantMap.Samples)
		}
		for i, g := range got.Data {
			if math.Float64bits(g) != math.Float64bits(wantMap.Data[i]) {
				t.Fatalf("%s at default flags: cell %d = %v, registry defaults give %v", op.Name, i, g, wantMap.Data[i])
			}
		}
	}
}
