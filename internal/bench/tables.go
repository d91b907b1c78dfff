package bench

import (
	"fmt"
	"math"

	"dassa/internal/daslib"
)

// Table2Row is one DasLib function with its semantic check result.
type Table2Row struct {
	Function string
	Semantic string
	Pass     bool
	Detail   string
}

// RunTable2 validates Table II: every DasLib function listed in the paper,
// called through the one signature each has (a caller-owned destination, no
// arena) and checked against its MATLAB-toolbox semantics on analytic cases.
// The unit tests in internal/daslib cover these far more deeply; this run
// prints a one-line certificate per function so the table is visible in
// bench output.
func RunTable2(o Options) ([]Table2Row, error) {
	w := o.out()
	var rows []Table2Row
	add := func(fn, sem string, pass bool, detail string) {
		rows = append(rows, Table2Row{Function: fn, Semantic: sem, Pass: pass, Detail: detail})
	}

	// Das_abscorr: |cos θ|.
	a := []float64{1, 2, 3}
	neg := []float64{-2, -4, -6}
	corr := daslib.AbsCorr(a, neg)
	add("Das_abscorr(c1,c2)", "|cos θ(c1,c2)|", math.Abs(corr-1) < 1e-12,
		fmt.Sprintf("anti-parallel vectors → %.6f", corr))

	// Das_detrend: removes the best straight-line fit.
	line := make([]float64, 64)
	for i := range line {
		line[i] = 3 - 0.25*float64(i)
	}
	daslib.DetrendInto(line, line)
	resid := 0.0
	for _, v := range line {
		resid = math.Max(resid, math.Abs(v))
	}
	add("Das_detrend(X)", "removes best straight-line fit", resid < 1e-9,
		fmt.Sprintf("pure-line residue %.2g", resid))

	// Das_butter: -3 dB at the cutoff.
	b, ac, err := daslib.Butter(4, daslib.Lowpass, 0.3)
	if err != nil {
		return nil, err
	}
	g := daslib.FreqzMag(b, ac, 0.3)
	add("Das_butter(n,fc)", "Butterworth coefficients, -3dB at fc",
		math.Abs(g-math.Sqrt(0.5)) < 1e-6, fmt.Sprintf("|H(fc)| = %.6f", g))

	// Das_filtfilt: zero-phase filtering.
	rate := 200.0
	x := make([]float64, 1000)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5 * float64(i) / rate)
	}
	fp, err := daslib.NewFilterPlan(b, ac)
	if err != nil {
		return nil, err
	}
	y := make([]float64, len(x))
	if err := fp.FiltFiltInto(y, x, nil); err != nil {
		return nil, err
	}
	maxd := 0.0
	for i := 300; i < 700; i++ {
		maxd = math.Max(maxd, math.Abs(y[i]-x[i]))
	}
	add("Das_filtfilt(c1,c2,X)", "zero-phase application of the filter",
		maxd < 1e-3, fmt.Sprintf("passband distortion %.2g", maxd))

	// Das_resample: rate change preserving in-band tones.
	tone := make([]float64, 2000)
	for i := range tone {
		tone[i] = math.Sin(2 * math.Pi * 4 * float64(i) / rate)
	}
	res := make([]float64, daslib.ResampleLen(len(tone), 1, 2))
	if err := daslib.ResampleInto(res, tone, 1, 2, nil); err != nil {
		return nil, err
	}
	maxd = 0.0
	for i := 100; i < 900; i++ {
		want := math.Sin(2 * math.Pi * 4 * float64(i) / (rate / 2))
		maxd = math.Max(maxd, math.Abs(res[i]-want))
	}
	add("Das_resample(X,1,R)", "samples X at the new rate", maxd < 5e-3,
		fmt.Sprintf("tone error %.2g", maxd))

	// Das_interp1: linear interpolation through the sample points.
	yi, err := daslib.Interp1([]float64{0, 1, 2}, []float64{0, 10, 0}, []float64{0.5, 1.5})
	if err != nil {
		return nil, err
	}
	add("Das_interp1(X0,Y0,X)", "linear interpolation f(X0)=Y0",
		yi[0] == 5 && yi[1] == 5, fmt.Sprintf("midpoints %v", yi))

	// Das_fft / Das_ifft: exact inversion of a real signal's transform.
	sig := make([]float64, 128)
	for i := range sig {
		sig[i] = math.Cos(2*math.Pi*7*float64(i)/128) + 0.3
	}
	spec, back := make([]complex128, len(sig)), make([]float64, len(sig))
	daslib.RFFTInto(spec, sig, nil)
	daslib.IRFFTInto(back, spec, nil)
	maxd = 0.0
	for i := range sig {
		maxd = math.Max(maxd, math.Abs(back[i]-sig[i]))
	}
	add("Das_fft/Das_ifft(X)", "DFT and exact inverse", maxd < 1e-9,
		fmt.Sprintf("round-trip error %.2g", maxd))

	hline(w, "Table II: DasLib function semantics")
	for _, r := range rows {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-24s %-42s %s (%s)\n", r.Function, r.Semantic, status, r.Detail)
	}
	for _, r := range rows {
		if !r.Pass {
			return rows, fmt.Errorf("bench: Table II semantic check failed: %s", r.Function)
		}
	}
	return rows, nil
}
