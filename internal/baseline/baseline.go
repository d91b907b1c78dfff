// Package baseline reimplements the geophysicists' MATLAB analysis pipeline
// the way it actually executes, to serve as the comparison system of the
// paper's Figure 9. The pipeline computes the same interferometry result as
// DASSA but with MATLAB's execution structure:
//
//   - the per-channel loop is interpreted M-code and therefore serial — only
//     the vectorized kernels inside an iteration can use MATLAB's implicit
//     multithreading, and for one channel's worth of samples that threading
//     gains almost nothing (Amdahl at kernel granularity);
//   - every toolbox call pays an interpreter dispatch overhead.
//
// DASSA instead parallelizes the whole pipeline across channels (HAEE), so
// its speedup scales with cores. The CallOverhead constant is the only
// simulated quantity; it is configurable, defaults to a conservative 20µs
// per toolbox call, and can be set to zero to measure pure structure.
package baseline

import (
	"math"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/detect"
	"dassa/internal/omp"
)

// Pipeline is a MATLAB-style interferometry run.
type Pipeline struct {
	Params detect.InterferometryParams
	// Threads models maxNumCompThreads: the parallel width available to
	// vectorized kernels. The channel loop itself remains serial.
	Threads int
	// CallOverhead is the interpreter dispatch cost charged per toolbox
	// call (detrend, butter, filtfilt, resample, fft, xcorr).
	CallOverhead time.Duration
}

// Stats reports where the time went.
type Stats struct {
	Compute      time.Duration
	KernelCalls  int64
	OverheadTime time.Duration
}

// New returns a pipeline with the default MATLAB-like settings.
func New(params detect.InterferometryParams, threads int) Pipeline {
	return Pipeline{Params: params, Threads: threads, CallOverhead: 20 * time.Microsecond}
}

// Run executes the pipeline over data (channels × time) and returns the
// per-channel noise correlations against the master channel — the same
// output DASSA's HAEE produces for the same parameters.
func (pl Pipeline) Run(data *dasf.Array2D) (*dasf.Array2D, Stats, error) {
	if err := pl.Params.Validate(data.Channels, data.Samples); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	start := time.Now()
	charge := func(calls int64) {
		st.KernelCalls += calls
		st.OverheadTime += time.Duration(calls) * pl.CallOverhead
		// The dispatch overhead is real time in MATLAB; spin it here so the
		// measured wall clock reflects it. time.Sleep would under-run for
		// sub-millisecond amounts, so busy-wait the (tiny) interval.
		if pl.CallOverhead > 0 {
			deadline := time.Now().Add(time.Duration(calls) * pl.CallOverhead)
			for time.Now().Before(deadline) {
			}
		}
	}

	p := pl.Params
	// Master channel: preprocessed once (detrend, butter, filtfilt,
	// resample, fft → 5 toolbox calls).
	master, err := preprocess(p, data.Row(p.MasterChannel))
	if err != nil {
		return nil, st, err
	}
	charge(5)

	rowLen := p.RowLen(data.Samples)
	out := dasf.NewArray2D(data.Channels, rowLen)
	// team parallelizes *inside* one channel's correlation kernel only —
	// MATLAB's implicit threading. The channel loop is the interpreted part
	// and stays serial.
	team := omp.NewTeam(pl.Threads)
	for ch := 0; ch < data.Channels; ch++ {
		series, err := preprocess(p, data.Row(ch))
		if err != nil {
			return nil, st, err
		}
		charge(4) // detrend, butter+filtfilt, resample

		corr := xcorrKernel(team, series, master)
		charge(2) // fft-based xcorr ≈ 2 vectorized calls
		copy(out.Row(ch), detect.TrimLags(corr, len(series), len(master), rowLen))
	}
	st.Compute = time.Since(start)
	return out, st, nil
}

// preprocess is one channel through the toolbox calls the M-code makes —
// detrend, filtfilt, resample — into a fresh array with no arena: an
// interpreter allocates every result, which is the point of the comparison.
func preprocess(p detect.InterferometryParams, x []float64) ([]float64, error) {
	out := make([]float64, daslib.ResampleLen(len(x), p.ResampleP, p.ResampleQ))
	return out, p.PreprocessInto(out, x, nil)
}

// xcorrKernel is the one kernel MATLAB's implicit threading can help with:
// the normalized cross-correlation. For a single channel the FFTs are small
// and the threaded section is only the elementwise multiply, so the gain is
// marginal — which is the point.
func xcorrKernel(team *omp.Team, a, b []float64) []float64 {
	n := len(a) + len(b) - 1
	m := daslib.NextPow2(n)
	fa := fftReal(padded(a, m))
	rb := make([]float64, m)
	for i, v := range b {
		rb[len(b)-1-i] = v
	}
	fb := fftReal(rb)
	// Elementwise product — the vectorized, implicitly-threaded part.
	team.For(m, func(i int) { fa[i] *= fb[i] })
	prod := make([]float64, m)
	daslib.IRFFTInto(prod, fa, nil)
	out := prod[:n]
	var ea, eb float64
	for _, v := range a {
		ea += v * v
	}
	for _, v := range b {
		eb += v * v
	}
	if ea > 0 && eb > 0 {
		norm := 1 / math.Sqrt(ea*eb)
		for i := range out {
			out[i] *= norm
		}
	}
	return out
}

// fftReal is MATLAB's fft of a real vector: a fresh spectrum per call.
func fftReal(x []float64) []complex128 {
	out := make([]complex128, len(x))
	daslib.RFFTInto(out, x, nil)
	return out
}

func padded(x []float64, m int) []float64 {
	out := make([]float64, m)
	copy(out, x)
	return out
}
