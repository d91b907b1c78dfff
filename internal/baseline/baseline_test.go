package baseline

import (
	"math"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/detect"
)

func testData(t *testing.T, channels int) (*dasf.Array2D, detect.InterferometryParams) {
	t.Helper()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 50, FileSeconds: 8, NumFiles: 1,
		Seed: 13, DType: dasf.Float64,
	}
	a, err := dasgen.GenerateFileArray(cfg, dasgen.Fig10Events(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 30,
	}
	return a, params
}

func TestPipelineValidation(t *testing.T) {
	a, params := testData(t, 4)
	params.MasterChannel = 99
	pl := New(params, 2)
	if _, _, err := pl.Run(a); err == nil {
		t.Error("out-of-range master channel should fail")
	}
	bad := params
	bad.Rate = 0
	if _, _, err := New(bad, 2).Run(a); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestPipelineOutputShape(t *testing.T) {
	a, params := testData(t, 6)
	pl := New(params, 2)
	pl.CallOverhead = 0
	out, st, err := pl.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if out.Channels != 6 || out.Samples != params.RowLen(a.Samples) {
		t.Fatalf("output shape %d×%d", out.Channels, out.Samples)
	}
	if st.Compute <= 0 {
		t.Error("compute time not recorded")
	}
	if st.KernelCalls == 0 {
		t.Error("kernel calls not counted")
	}
	// Master self-correlation peak at zero lag ≈ 1.
	zero := out.Samples / 2
	if d := math.Abs(out.At(0, zero) - 1); d > 1e-6 {
		t.Errorf("self correlation = %g", out.At(0, zero))
	}
}

func TestBaselineMatchesDASSAResult(t *testing.T) {
	// Same math, different execution structure: results must agree with the
	// detect workload's UDF output.
	a, params := testData(t, 5)
	pl := New(params, 1)
	pl.CallOverhead = 0
	got, _, err := pl.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	// Direct computation via detect's pieces.
	master, err := preprocess(params, a.Row(params.MasterChannel))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < a.Channels; c++ {
		series, err := preprocess(params, a.Row(c))
		if err != nil {
			t.Fatal(err)
		}
		corr := detect.TrimLags(xcorr(series, master), len(series), len(master), got.Samples)
		for i := range corr {
			if d := math.Abs(got.At(c, i) - corr[i]); d > 1e-9 {
				t.Fatalf("channel %d lag %d differs by %g", c, i, d)
			}
		}
	}
}

func TestOverheadCharged(t *testing.T) {
	a, params := testData(t, 4)
	pl := New(params, 1)
	pl.CallOverhead = 200 * time.Microsecond
	_, st, err := pl.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	wantMin := time.Duration(st.KernelCalls) * pl.CallOverhead
	if st.Compute < wantMin {
		t.Errorf("compute %v below charged overhead %v", st.Compute, wantMin)
	}
	if st.OverheadTime != wantMin {
		t.Errorf("overhead accounting %v, want %v", st.OverheadTime, wantMin)
	}
}

// xcorr is a local copy of the normalized FFT cross-correlation used for
// verification (identical formula to daslib.XCorrNormalizedInto).
func xcorr(a, b []float64) []float64 {
	n := len(a) + len(b) - 1
	out := make([]float64, n)
	var ea, eb float64
	for _, v := range a {
		ea += v * v
	}
	for _, v := range b {
		eb += v * v
	}
	for i := range out {
		l := i - (len(b) - 1)
		var s float64
		for j := 0; j < len(a); j++ {
			k := j - l
			if k >= 0 && k < len(b) {
				s += a[j] * b[k]
			}
		}
		out[i] = s / math.Sqrt(ea*eb)
	}
	return out
}
