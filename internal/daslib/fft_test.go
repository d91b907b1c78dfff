package daslib

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dftNaive is the O(n²) reference DFT.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// fftOf, ifftOf, rfftOf and irfftOf are the serial caller's spelling of the
// transforms: a fresh destination, no arena.
func fftOf(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFFT(len(x)).FFTInto(out, x, nil)
	return out
}

func ifftOf(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFFT(len(x)).IFFTInto(out, x, nil)
	return out
}

func rfftOf(x []float64) []complex128 {
	out := make([]complex128, len(x))
	RFFTInto(out, x, nil)
	return out
}

func irfftOf(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	IRFFTInto(out, spec, nil)
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Both power-of-two (radix-2) and arbitrary (Bluestein) lengths.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 60, 64, 100, 127, 128} {
		x := randComplex(rng, n)
		got := fftOf(x)
		want := dftNaive(x)
		if d := maxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: FFT differs from naive DFT by %g", n, d)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,0,0,0] is all ones.
	got := fftOf([]complex128{1, 0, 0, 0})
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v", i, v)
		}
	}
	// FFT of a pure tone has a single spike.
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*5*float64(i)/n))
	}
	spec := fftOf(x)
	for k, v := range spec {
		mag := cmplx.Abs(v)
		if k == 5 && math.Abs(mag-n) > 1e-9 {
			t.Errorf("tone bin magnitude = %g, want %d", mag, n)
		}
		if k != 5 && mag > 1e-9 {
			t.Errorf("leakage at bin %d: %g", k, mag)
		}
	}
}

func TestIFFTInvertsFFTProperty(t *testing.T) {
	f := func(re, im []float64) bool {
		n := min(len(re), len(im))
		if n == 0 {
			return true
		}
		if n > 200 {
			n = 200
		}
		x := make([]complex128, n)
		for i := range x {
			if math.IsNaN(re[i]) || math.IsInf(re[i], 0) || math.Abs(re[i]) > 1e100 ||
				math.IsNaN(im[i]) || math.IsInf(im[i], 0) || math.Abs(im[i]) > 1e100 {
				return true // summing such values overflows; not a transform bug
			}
			x[i] = complex(re[i], im[i])
		}
		back := ifftOf(fftOf(x))
		scale := 0.0
		for _, v := range x {
			scale = math.Max(scale, cmplx.Abs(v))
		}
		return maxAbsDiff(back, x) <= 1e-9*(1+scale)*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|² == (1/n) sum |X|².
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 300 {
			vals = vals[:300]
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		spec := rfftOf(vals)
		var et, ef float64
		for _, v := range vals {
			et += v * v
		}
		for _, v := range spec {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(len(vals))
		return math.Abs(et-ef) <= 1e-6*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{16, 23} {
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = 2*x[i] + 3*y[i]
		}
		fx, fy, fs := fftOf(x), fftOf(y), fftOf(sum)
		for i := range fs {
			want := 2*fx[i] + 3*fy[i]
			if cmplx.Abs(fs[i]-want) > 1e-9 {
				t.Fatalf("n=%d: linearity violated at bin %d", n, i)
			}
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 48)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := rfftOf(x)
	n := len(x)
	for k := 1; k < n; k++ {
		if d := cmplx.Abs(spec[k] - cmplx.Conj(spec[n-k])); d > 1e-9 {
			t.Errorf("conjugate symmetry violated at bin %d: %g", k, d)
		}
	}
	back := irfftOf(spec)
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-9 {
			t.Errorf("IRFFTInto round trip differs at %d", i)
		}
	}
}

func TestFFTFreqs(t *testing.T) {
	got := FFTFreqs(4, 100)
	want := []float64{0, 25, 50 - 100, -25} // [0, 25, -50, -25]
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("FFTFreqs(4,100)[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	got = FFTFreqs(5, 10)
	want = []float64{0, 2, 4, -4, -2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("FFTFreqs(5,10)[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if FFTFreqs(0, 10) != nil {
		t.Error("FFTFreqs(0) should be nil")
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := fftOf(nil); len(got) != 0 {
		t.Error("FFT(nil) should be empty")
	}
	got := fftOf([]complex128{complex(3, -2)})
	if len(got) != 1 || got[0] != complex(3, -2) {
		t.Errorf("FFT singleton = %v", got)
	}
	if got := ifftOf([]complex128{complex(4, 0)}); got[0] != complex(4, 0) {
		t.Errorf("IFFT singleton = %v", got)
	}
}

func benchmarkFFT(b *testing.B, n int) {
	x := randComplex(rand.New(rand.NewSource(1)), n)
	dst, plan, s := make([]complex128, n), PlanFFT(n), NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.FFTInto(dst, x, s)
	}
}

func BenchmarkFFTPow2_4096(b *testing.B)      { benchmarkFFT(b, 4096) }
func BenchmarkFFTBluestein_4095(b *testing.B) { benchmarkFFT(b, 4095) }
