package daslib

import (
	"math"
	"testing"
)

func TestHilbertQuadrature(t *testing.T) {
	// hilbert(cos) = cos + i·sin: the imaginary part of the analytic signal
	// of a cosine is the sine. The tone must complete an integer number of
	// cycles in the window, or leakage perturbs the quadrature.
	const n = 256
	const cycles = 20
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * cycles * float64(i) / n)
	}
	a := Hilbert(x)
	for i := 10; i < n-10; i++ {
		wantIm := math.Sin(2 * math.Pi * cycles * float64(i) / n)
		if d := math.Abs(imag(a[i]) - wantIm); d > 1e-6 {
			t.Fatalf("imag[%d] = %g, want %g", i, imag(a[i]), wantIm)
		}
		if d := math.Abs(real(a[i]) - x[i]); d > 1e-9 {
			t.Fatalf("real part changed at %d", i)
		}
	}
	if Hilbert(nil) != nil {
		t.Error("Hilbert(nil) should be nil")
	}
}

func TestHilbertOddLength(t *testing.T) {
	// Odd lengths take the Bluestein path and the odd Nyquist handling.
	const n = 255
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	a := Hilbert(x)
	for i := 10; i < n-10; i++ {
		want := math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
		if d := math.Abs(imag(a[i]) - want); d > 1e-6 {
			t.Fatalf("odd-length quadrature off at %d by %g", i, d)
		}
	}
}

func TestEnvelopeOfModulatedTone(t *testing.T) {
	// envelope(A(t)·cos(ωt)) ≈ A(t) for slowly varying A.
	const n = 1024
	rate := 200.0
	x := make([]float64, n)
	amp := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		amp[i] = 1 + 0.5*math.Sin(2*math.Pi*0.5*ti)
		x[i] = amp[i] * math.Cos(2*math.Pi*25*ti)
	}
	env := Envelope(x)
	for i := 100; i < n-100; i++ {
		if d := math.Abs(env[i] - amp[i]); d > 0.02 {
			t.Fatalf("envelope[%d] = %g, want %g", i, env[i], amp[i])
		}
	}
}

func TestSTFTPeakTracksChirp(t *testing.T) {
	// Two tones in sequence: the spectrogram's peak frequency must switch.
	rate := 256.0
	n := 2048
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		if i < n/2 {
			x[i] = math.Sin(2 * math.Pi * 32 * ti)
		} else {
			x[i] = math.Sin(2 * math.Pi * 96 * ti)
		}
	}
	sg, err := STFT(x, 256, 128, rate)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumBins != 129 {
		t.Errorf("NumBins = %d, want 129", sg.NumBins)
	}
	if sg.BinHz != 1 {
		t.Errorf("BinHz = %g, want 1", sg.BinHz)
	}
	early := sg.PeakFrequency(1)
	late := sg.PeakFrequency(len(sg.Mag) - 2)
	if math.Abs(early-32) > 2 {
		t.Errorf("early peak = %g Hz, want 32", early)
	}
	if math.Abs(late-96) > 2 {
		t.Errorf("late peak = %g Hz, want 96", late)
	}
}

func TestSTFTValidation(t *testing.T) {
	x := make([]float64, 100)
	if _, err := STFT(x, 100, 10, 1); err == nil {
		t.Error("non-power-of-two nfft should fail")
	}
	if _, err := STFT(x, 128, 10, 1); err == nil {
		t.Error("input shorter than nfft should fail")
	}
	if _, err := STFT(x, 64, 0, 1); err == nil {
		t.Error("zero hop should fail")
	}
	sg, err := STFT(x, 64, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.PeakFrequency(-1); got != 0 {
		t.Error("out-of-range frame should return 0")
	}
}

func TestMedianFilterDespikes(t *testing.T) {
	x := []float64{1, 1, 1, 100, 1, 1, 1}
	got := MedianFilter(x, 1)
	if got[3] != 1 {
		t.Errorf("spike survived: %g", got[3])
	}
	// Identity for half=0.
	got = MedianFilter(x, 0)
	if got[3] != 100 {
		t.Error("half=0 should be identity")
	}
	// Even-count edge windows average the two middles.
	got = MedianFilter([]float64{1, 3}, 1)
	if got[0] != 2 || got[1] != 2 {
		t.Errorf("edge medians = %v", got)
	}
}

func TestInstantaneousPhaseLinear(t *testing.T) {
	// The unwrapped phase of a pure tone advances linearly at ω rad/sample.
	// Integer cycles in the window keep leakage out of the phase estimate.
	const n = 512
	const cycles = 36
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * cycles * float64(i) / n)
	}
	ph := InstantaneousPhase(x)
	slope := 2 * math.Pi * cycles / float64(n)
	for i := 50; i < n-50; i++ {
		want := ph[50] + slope*float64(i-50)
		if d := math.Abs(ph[i] - want); d > 0.05 {
			t.Fatalf("phase[%d] deviates by %g", i, d)
		}
	}
}

func TestButterBandstopResponse(t *testing.T) {
	lo, hi := 0.25, 0.4
	b, a, err := Butter(3, Bandstop, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 7 || len(a) != 7 {
		t.Fatalf("bandstop order 3 should give 7 coefficients, got %d/%d", len(b), len(a))
	}
	if g := FreqzMag(b, a, 1e-9); math.Abs(g-1) > 1e-6 {
		t.Errorf("DC gain = %g, want 1", g)
	}
	if g := FreqzMag(b, a, 0.999999); math.Abs(g-1) > 1e-4 {
		t.Errorf("Nyquist gain = %g, want 1", g)
	}
	center := math.Sqrt(lo * hi)
	if g := FreqzMag(b, a, center); g > 1e-3 {
		t.Errorf("notch center gain = %g, want ≈0", g)
	}
	for _, edge := range []float64{lo, hi} {
		if g := FreqzMag(b, a, edge); math.Abs(g-math.Sqrt(0.5)) > 1e-5 {
			t.Errorf("edge %g gain = %g, want -3dB", edge, g)
		}
	}
	if Bandstop.String() != "bandstop" {
		t.Error("Bandstop.String broken")
	}
}

func TestFilterConveniences(t *testing.T) {
	rate := 500.0
	n := 4000
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		x[i] = math.Sin(2*math.Pi*5*ti) + math.Sin(2*math.Pi*60*ti) + math.Sin(2*math.Pi*150*ti)
	}
	// Lowpass keeps 5 Hz, kills 150 Hz.
	y, err := LowpassFilter(x, 4, 20, rate)
	if err != nil {
		t.Fatal(err)
	}
	ref5 := sine(n, 5, rate)
	if c := AbsCorr(y[500:3500], ref5[500:3500]); c < 0.95 {
		t.Errorf("lowpass correlation with 5 Hz = %g", c)
	}
	// Highpass keeps 150 Hz.
	y, err = HighpassFilter(x, 4, 100, rate)
	if err != nil {
		t.Fatal(err)
	}
	ref150 := sine(n, 150, rate)
	if c := AbsCorr(y[500:3500], ref150[500:3500]); c < 0.95 {
		t.Errorf("highpass correlation with 150 Hz = %g", c)
	}
	// Notch removes 60 Hz hum, keeps the rest.
	y, err = NotchFilter(x, 3, 50, 70, rate)
	if err != nil {
		t.Fatal(err)
	}
	spec := rfftOf(y[500:3572])
	freqs := FFTFreqs(len(spec), rate)
	var at60, at5 float64
	for i, f := range freqs {
		mag := math.Hypot(real(spec[i]), imag(spec[i]))
		if math.Abs(f-60) < 0.5 {
			at60 = math.Max(at60, mag)
		}
		if math.Abs(f-5) < 0.5 {
			at5 = math.Max(at5, mag)
		}
	}
	if at60 > at5/20 {
		t.Errorf("notch left 60 Hz at %g vs 5 Hz at %g", at60, at5)
	}
}
