package clitest

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCode runs a tool and returns its combined output and exit code,
// failing only if the process could not be started at all.
func runCode(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if ok := asExitError(err, &ee); !ok {
			t.Fatalf("%s %v did not run: %v\n%s", name, args, err, out)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// chaosVCA generates a small acquisition and merges it into a VCA, returning
// the VCA path and the base name of one member file.
func chaosVCA(t *testing.T) (string, string) {
	t.Helper()
	data := t.TempDir()
	run(t, "das_gen", "-dir", data, "-channels", "12", "-rate", "50",
		"-seconds", "2", "-files", "4", "-events", "fig10")
	files, err := filepath.Glob(filepath.Join(data, "westSac_*.dasf"))
	if err != nil || len(files) != 4 {
		t.Fatalf("generated files: %v %v", files, err)
	}
	vca := filepath.Join(data, "merged.dasf")
	run(t, "das_search", "-dir", data, "-vca", vca)
	return vca, filepath.Base(files[2])
}

// TestCLIExitCodes pins the documented contract: usage errors exit 2, data
// errors exit 1, degraded-but-completed runs exit 0 with a warning line.
func TestCLIExitCodes(t *testing.T) {
	vca, _ := chaosVCA(t)

	usage := [][]string{
		{"das_analyze"}, // missing -in
		{"das_analyze", "-in", vca, "-op", "nonsense"},             // unknown op
		{"das_analyze", "-in", vca, "-mode", "serial"},             // unknown mode
		{"das_analyze", "-in", vca, "-read", "psychic"},            // unknown read strategy
		{"das_analyze", "-in", vca, "-fail-policy", "x"},           // unknown policy
		{"das_analyze", "-in", vca, "-inject", "wat"},              // bad injection spec
		{"das_analyze", "-in", vca, "-retries", "-2"},              // negative retries
		{"das_analyze", "-in", vca, "-op", "localsimi", "-M", "0"}, // bad params
		{"das_search", "-dir", t.TempDir(), "-e", "("},             // regex does not compile
		// Rows ops are bounded against the view before anything is read:
		// a master channel outside it, a stacking window longer than it.
		{"das_analyze", "-in", vca, "-op", "interferometry", "-master", "9999"},
		{"das_analyze", "-in", vca, "-op", "stacked", "-window", "999999"},
		// The per-op flags are the registry's keys: a value that does not
		// parse, and a flag the chosen op does not declare, are usage errors.
		{"das_analyze", "-in", vca, "-op", "stalta", "-sta", "soon"},
		{"das_analyze", "-in", vca, "-op", "stalta", "-M", "5"},
		{"das_analyze", "-in", vca, "-op", "localsimi", "-window", "64"},
		// An op that reads outside its shard is local only, said before any
		// worker is dialled.
		{"das_analyze", "-in", vca, "-op", "interferometry", "-workers", "127.0.0.1:1"},
		{"das_analyze", "-in", vca, "-op", "stacked", "-workers", "127.0.0.1:1"},
		// The block cache has no off switch: a budget below 1 MiB is refused.
		{"dassd", "-cache-mb", "0"},
	}
	for _, args := range usage {
		if out, code := runCode(t, args[0], args[1:]...); code != 2 {
			t.Errorf("%v exited %d, want 2 (usage)\n%s", args, code, out)
		}
	}

	data := [][]string{
		{"das_analyze", "-in", filepath.Join(t.TempDir(), "no_such.dasf")},
		{"das_search", "-dir", filepath.Join(t.TempDir(), "no_such_dir")},
	}
	for _, args := range data {
		if out, code := runCode(t, args[0], args[1:]...); code != 1 {
			t.Errorf("%v exited %d, want 1 (data)\n%s", args, code, out)
		}
	}
}

// TestCLIDegradedRun injects a permanently missing member: under the default
// abort policy the run must fail (exit 1); under -fail-policy degrade it must
// complete with exit 0, a WARNING naming the lost file, and the robustness
// counters on the trace line.
func TestCLIDegradedRun(t *testing.T) {
	vca, lost := chaosVCA(t)
	common := []string{"-in", vca, "-op", "localsimi", "-M", "10", "-stride", "5",
		"-nodes", "2", "-cores", "2", "-inject", "missing=" + lost}

	out, code := runCode(t, "das_analyze", common...)
	if code != 1 {
		t.Errorf("abort policy with missing member exited %d, want 1\n%s", code, out)
	}

	out, code = runCode(t, "das_analyze", append(common, "-fail-policy", "degrade")...)
	if code != 0 {
		t.Fatalf("degrade policy exited %d, want 0\n%s", code, out)
	}
	for _, want := range []string{"WARNING", "DEGRADED", lost, "masked samples", "detected"} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded run output missing %q:\n%s", want, out)
		}
	}
}

// TestCLITransientRetries injects transient faults on every file and checks
// -retries rides them out: exit 0, no warning, retries visible on the
// robustness line.
func TestCLITransientRetries(t *testing.T) {
	vca, _ := chaosVCA(t)
	out, code := runCode(t, "das_analyze", "-in", vca, "-op", "localsimi",
		"-M", "10", "-stride", "5", "-nodes", "2", "-cores", "2",
		"-inject", "seed=3,transient=0.9,max=3", "-retries", "3")
	if code != 0 {
		t.Fatalf("retried run exited %d\n%s", code, out)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("transient-only run warned:\n%s", out)
	}
	if m := regexp.MustCompile(`robustness: (\d+) retries`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("no retries surfaced on the robustness line:\n%s", out)
	}
}
