package daslib

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// detrended returns a detrended copy of x.
func detrended(x []float64) []float64 {
	out := make([]float64, len(x))
	DetrendInto(out, x)
	return out
}

func TestDetrendRemovesLine(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	for _, v := range detrended(x) {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("pure line not removed: residue %g", v)
		}
	}
	// Detrending a line+sine leaves a signal with zero mean, zero
	// least-squares slope, and high correlation with the sine. (The sine is
	// not exactly orthogonal to a ramp, so exact recovery is not expected.)
	sig := make([]float64, 100)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 10 * float64(i) / 100)
	}
	mixed := make([]float64, 100)
	for i := range mixed {
		mixed[i] = sig[i] - 7 + 0.3*float64(i)
	}
	got := detrended(mixed)
	var mean, slope float64
	for i, v := range got {
		mean += v
		slope += (float64(i) - 49.5) * v
	}
	if math.Abs(mean) > 1e-9 {
		t.Errorf("detrended mean = %g, want 0", mean/100)
	}
	if math.Abs(slope) > 1e-7 {
		t.Errorf("detrended slope moment = %g, want 0", slope)
	}
	if c := AbsCorr(got, sig); c < 0.99 {
		t.Errorf("detrended/sine correlation = %g, want > 0.99", c)
	}
	if got := detrended([]float64{5}); got[0] != 0 {
		t.Error("single point should detrend to 0")
	}
}

func TestDetrendIdempotentProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) > 300 {
			vals = vals[:300]
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				return true
			}
		}
		once := detrended(vals)
		twice := detrended(once)
		scale := 1.0
		for _, v := range vals {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range once {
			if math.Abs(once[i]-twice[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbsCorr(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := AbsCorr(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g", got)
	}
	neg := []float64{-1, -2, -3}
	if got := AbsCorr(a, neg); math.Abs(got-1) > 1e-12 {
		t.Errorf("anti-correlation = %g, want |cos|=1", got)
	}
	orth1, orth2 := []float64{1, 0}, []float64{0, 1}
	if got := AbsCorr(orth1, orth2); got != 0 {
		t.Errorf("orthogonal correlation = %g", got)
	}
	if got := AbsCorr([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Errorf("zero-vector correlation = %g", got)
	}
}

// TestMaxAbsCorrLagsMatchesAbsCorr pins the multi-lag kernel to the loop it
// fuses — one AbsCorr per lag, NaN-holding windows skipped, folded with
// math.Max — by bit pattern, over every lag-count remainder of its
// three-lag pass and with NaN, ±Inf and all-zero windows in the span.
func TestMaxAbsCorrLagsMatchesAbsCorr(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		w := make([]float64, 1+rng.Intn(40))
		span := make([]float64, len(w)+rng.Intn(9))
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		for i := range span {
			switch rng.Intn(40) {
			case 0:
				span[i] = math.NaN()
			case 1:
				span[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				span[i] = rng.NormFloat64()
			}
		}
		switch iter % 10 {
		case 0:
			clear(span)
		case 1:
			clear(w)
		}
		var want float64
		for l := 0; l+len(w) <= len(span); l++ {
			win := span[l : l+len(w)]
			if !math.IsNaN(SumSquares(win)) {
				want = math.Max(want, AbsCorr(w, win))
			}
		}
		got := MaxAbsCorrLags(w, SumSquares(w), span)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d (window %d, %d lags): %v, per-lag AbsCorr gives %v",
				iter, len(w), len(span)-len(w)+1, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a span shorter than the window should panic")
		}
	}()
	MaxAbsCorrLags(make([]float64, 4), 0, make([]float64, 3))
}

// TestLagPartialsAddUp: a window cut anywhere into segments is the sum of
// its segments' partials — within rounding on clean data, and with a NaN or
// ±Inf reaching exactly the lags whose window holds it: the sums only add,
// so nothing cancels a poisoned sample back out and nothing spreads it.
func TestLagPartialsAddUp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		n, lags := 1+rng.Intn(60), 1+rng.Intn(9)
		w, span := make([]float64, n), make([]float64, n+lags-1)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		for i := range span {
			span[i] = rng.NormFloat64()
		}
		if iter%3 == 0 {
			span[rng.Intn(len(span))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		whole, wholeSq := make([]float64, lags), make([]float64, lags)
		LagPartials(whole, wholeSq, w, span)
		dot, sq := make([]float64, lags), make([]float64, lags)
		part, partSq := make([]float64, lags), make([]float64, lags)
		for a := 0; a < n; {
			b := min(n, a+rng.Intn(n+1)) // empty segments too
			LagPartials(part, partSq, w[a:b], span[a:b+lags-1])
			for l := range dot {
				dot[l] += part[l]
				sq[l] += partSq[l]
			}
			a = b
		}
		for l := range dot {
			for _, c := range [][2]float64{{dot[l], whole[l]}, {sq[l], wholeSq[l]}} {
				got, want := c[0], c[1]
				if math.IsNaN(want) != math.IsNaN(got) || math.IsInf(want, 0) != math.IsInf(got, 0) ||
					(!math.IsNaN(want) && !math.IsInf(want, 0) && math.Abs(got-want) > 1e-12*float64(n)) {
					t.Fatalf("iter %d lag %d: segments add up to %v, the whole window gives %v", iter, l, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a span that does not match the segment and lag count should panic")
		}
	}()
	LagPartials(make([]float64, 3), make([]float64, 3), make([]float64, 4), make([]float64, 7))
}

func TestSumSquaresNaNIffInputNaN(t *testing.T) {
	for _, tc := range []struct {
		x   []float64
		nan bool
	}{
		{nil, false},
		{[]float64{1, -2, 3}, false},
		{[]float64{math.Inf(1), math.Inf(-1), 0}, false},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, false},
		{[]float64{1, math.NaN(), 3}, true},
		{[]float64{math.Inf(1), math.NaN()}, true},
	} {
		if got := math.IsNaN(SumSquares(tc.x)); got != tc.nan {
			t.Errorf("SumSquares(%v) NaN = %v, want %v", tc.x, got, tc.nan)
		}
	}
	if got := SumSquares([]float64{3, 4}); got != 25 {
		t.Errorf("SumSquares(3,4) = %g", got)
	}
}

func TestAbsCorrRangeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for i := 0; i < n; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) ||
				math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				return true
			}
		}
		c := AbsCorr(a, b)
		return c >= 0 && c <= 1+1e-9 && c == AbsCorr(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterp1(t *testing.T) {
	x0 := []float64{0, 1, 2}
	y0 := []float64{0, 10, 0}
	got, err := Interp1(x0, y0, []float64{-1, 0, 0.5, 1, 1.25, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 5, 10, 7.5, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Interp1[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := Interp1([]float64{0, 0}, []float64{1, 2}, []float64{0}); err == nil {
		t.Error("non-increasing x0 should fail")
	}
	if _, err := Interp1([]float64{0}, []float64{1, 2}, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Interp1(nil, nil, nil); err == nil {
		t.Error("empty x0 should fail")
	}
}

func TestInterp1RecoversSamplesProperty(t *testing.T) {
	// Querying exactly at the sample points returns the sample values.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 100 {
			raw = raw[:100]
		}
		x0 := make([]float64, len(raw))
		y0 := make([]float64, len(raw))
		for i := range raw {
			x0[i] = float64(i) * 1.5
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			y0[i] = v
		}
		got, err := Interp1(x0, y0, x0)
		if err != nil {
			return false
		}
		for i := range y0 {
			if got[i] != y0[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindows(t *testing.T) {
	k := kaiserWin(11, 5)
	if math.Abs(k[5]-1) > 1e-12 {
		t.Errorf("Kaiser center = %g, want 1", k[5])
	}
	for i := 0; i < 5; i++ {
		if math.Abs(k[i]-k[10-i]) > 1e-12 {
			t.Errorf("Kaiser asymmetric at %d", i)
		}
		if k[i] >= k[i+1] {
			t.Errorf("Kaiser not increasing toward center at %d", i)
		}
	}
	if got := kaiserWin(1, 5); got[0] != 1 {
		t.Error("Kaiser(1) should be [1]")
	}
	// beta=0 Kaiser is rectangular.
	for _, v := range kaiserWin(7, 0) {
		if math.Abs(v-1) > 1e-12 {
			t.Error("Kaiser(beta=0) should be all ones")
		}
	}
}

func TestBesselI0(t *testing.T) {
	// Known values: I0(0)=1, I0(1)≈1.2660658, I0(5)≈27.239872.
	cases := map[float64]float64{0: 1, 1: 1.2660658777520084, 5: 27.239871823604442}
	for x, want := range cases {
		if got := besselI0(x); math.Abs(got-want) > 1e-9*want {
			t.Errorf("I0(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestSpectralWhitenFlattens(t *testing.T) {
	rate := 100.0
	n := 512
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		x[i] = 10*math.Sin(2*math.Pi*10*ti) + 0.5*math.Sin(2*math.Pi*20*ti)
	}
	y := make([]float64, n)
	SpectralWhitenInto(y, x, 5, 30, rate, nil)
	spec := rfftOf(y)
	var in10, in20, out40 float64
	for i := range spec {
		f := fftFreqAbs(i, n, rate)
		mag := math.Hypot(real(spec[i]), imag(spec[i]))
		switch {
		case math.Abs(f-10) < 0.2:
			in10 = math.Max(in10, mag)
		case math.Abs(f-20) < 0.2:
			in20 = math.Max(in20, mag)
		case math.Abs(f-40) < 0.2:
			out40 = math.Max(out40, mag)
		}
	}
	// The 20× amplitude ratio must be flattened to ≈1.
	if in10 == 0 || in20 == 0 {
		t.Fatal("whitened spectrum lost in-band content")
	}
	if r := in10 / in20; r > 1.5 || r < 0.67 {
		t.Errorf("whitened band ratio = %g, want ≈1", r)
	}
	if out40 > 1e-9 {
		t.Errorf("out-of-band energy survived: %g", out40)
	}
}

// xcorrOf is the serial caller's spelling: a fresh destination, no arena.
func xcorrOf(a, b []float64) []float64 {
	out := make([]float64, XCorrLen(len(a), len(b)))
	XCorrInto(out, a, b, nil)
	return out
}

func TestXCorrMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ na, nb int }{{5, 5}, {8, 3}, {3, 8}, {1, 1}, {16, 16}} {
		a := make([]float64, tc.na)
		b := make([]float64, tc.nb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := xcorrOf(a, b)
		// Naive: out[i] corresponds to lag l = i - (nb-1);
		// out[i] = sum_n a[n] b[n - l].
		n := tc.na + tc.nb - 1
		if len(got) != n {
			t.Fatalf("XCorr length = %d, want %d", len(got), n)
		}
		for i := 0; i < n; i++ {
			l := i - (tc.nb - 1)
			var want float64
			for j := 0; j < tc.na; j++ {
				k := j - l
				if k >= 0 && k < tc.nb {
					want += a[j] * b[k]
				}
			}
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("na=%d nb=%d: XCorr[%d] = %g, want %g", tc.na, tc.nb, i, got[i], want)
			}
		}
	}
}

func TestXCorrNormalizedSelfPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 64)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	out := make([]float64, XCorrLen(len(a), len(a)))
	XCorrNormalizedInto(out, a, a, nil)
	peak := out[len(a)-1] // zero lag
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("zero-lag self correlation = %g, want 1", peak)
	}
	for i, v := range out {
		if v > 1+1e-9 {
			t.Errorf("normalized value %g > 1 at %d", v, i)
		}
	}
	if XCorrLen(0, len(a)) != 0 || XCorrLen(len(a), 0) != 0 {
		t.Error("a correlation with an empty input has no lags")
	}
	XCorrInto(nil, nil, a, nil) // and writing them is a no-op
}

func TestXCorrDetectsShift(t *testing.T) {
	// b is a delayed copy of a: the correlation peak sits at the delay.
	rng := rand.New(rand.NewSource(6))
	const n, shift = 128, 17
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	copy(b[shift:], a[:n-shift]) // b[t] = a[t-shift]
	out := xcorrOf(a, b)
	best, bestLag := math.Inf(-1), 0
	for i, v := range out {
		if v > best {
			best, bestLag = v, i-(n-1)
		}
	}
	if bestLag != -shift {
		t.Errorf("peak at lag %d, want %d", bestLag, -shift)
	}
}
