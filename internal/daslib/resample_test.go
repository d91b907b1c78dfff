package daslib

import (
	"math"
	"math/rand"
	"testing"
)

func sine(n int, freqHz, rate float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freqHz * float64(i) / rate)
	}
	return x
}

// resampleOf is the serial caller's spelling of a rate change: a fresh
// destination of ResampleLen samples, no arena.
func resampleOf(x []float64, p, q int) ([]float64, error) {
	out := make([]float64, ResampleLen(len(x), p, q))
	return out, ResampleInto(out, x, p, q, nil)
}

func TestResampleIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y, err := resampleOf(x, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("identity resample changed data at %d", i)
		}
	}
	// Equal reduced factors are also identity: 3/3 → 1/1.
	y, err = resampleOf(x, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(x) || y[2] != x[2] {
		t.Error("3/3 resample should be identity")
	}
}

func TestResampleValidation(t *testing.T) {
	if _, err := resampleOf([]float64{1}, 0, 1); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := resampleOf([]float64{1}, 1, -2); err == nil {
		t.Error("q<0 should fail")
	}
	y, err := resampleOf(nil, 2, 1)
	if err != nil || len(y) != 0 {
		t.Error("empty input should return empty output")
	}
}

func TestResampleOutputLength(t *testing.T) {
	for _, tc := range []struct{ n, p, q, want int }{
		{100, 1, 2, 50}, {100, 2, 1, 200}, {100, 3, 2, 150}, {101, 1, 2, 51}, {99, 2, 3, 66},
	} {
		x := make([]float64, tc.n)
		y, err := resampleOf(x, tc.p, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(y) != tc.want {
			t.Errorf("resampleOf(n=%d, %d/%d) length = %d, want %d", tc.n, tc.p, tc.q, len(y), tc.want)
		}
	}
}

func TestResampleDownPreservesTone(t *testing.T) {
	// A 5 Hz tone at 500 Hz, downsampled 2:1, must match the 5 Hz tone
	// sampled at 250 Hz (away from the edges).
	rate := 500.0
	x := sine(2000, 5, rate)
	y, err := resampleOf(x, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := sine(1000, 5, 250)
	for i := 100; i < 900; i++ {
		if d := math.Abs(y[i] - want[i]); d > 1e-3 {
			t.Fatalf("downsampled[%d] = %g, want %g (diff %g)", i, y[i], want[i], d)
		}
	}
}

func TestResampleUpPreservesTone(t *testing.T) {
	rate := 100.0
	x := sine(500, 3, rate)
	y, err := resampleOf(x, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := sine(1000, 3, 200)
	for i := 100; i < 900; i++ {
		if d := math.Abs(y[i] - want[i]); d > 1e-3 {
			t.Fatalf("upsampled[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestResampleRational(t *testing.T) {
	// 500 Hz → 125 Hz via 1/4 (the paper pipeline decimates raw DAS data).
	rate := 500.0
	x := sine(4000, 8, rate)
	y, err := resampleOf(x, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := sine(1000, 8, 125)
	for i := 100; i < 900; i++ {
		if d := math.Abs(y[i] - want[i]); d > 2e-3 {
			t.Fatalf("resampled[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestResampleRejectsAliases(t *testing.T) {
	// A 200 Hz tone at 500 Hz sample rate, downsampled 2:1 (new Nyquist
	// 125 Hz), must be attenuated, not aliased to 50 Hz.
	rate := 500.0
	x := sine(4000, 200, rate)
	y, err := resampleOf(x, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := rms(y[200:1800]); r > 0.05 {
		t.Errorf("aliased energy RMS = %g, want ≈0 (input RMS %g)", r, rms(x))
	}
}

// TestResampleDecimateMatchesScalar pins the eight-output decimation pass to
// the folded scalar loop, bit for bit: every length that puts the
// interior/edge boundaries and the 8-wide remainder somewhere different,
// plus the benchmark's row length.
func TestResampleDecimateMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	lengths := []int{1000, 1001, 64000}
	for n := 1; n <= 83; n++ {
		lengths = append(lengths, n)
	}
	for _, q := range []int{2, 3, 5} {
		rp := resamplePlanFor(1, q)
		for _, n := range lengths {
			x := randFloats(rng, n)
			got := make([]float64, ResampleLen(n, 1, q))
			if err := ResampleInto(got, x, 1, q, nil); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(got))
			rp.folded(want, x, 0, len(want))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d q=%d: output %d = %v, folded loop %v", n, q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResamplePlanTaps pins the design the folded pass relies on: every tap
// a nonzero multiple of max(p, q) from the centre is exactly 0, the others
// are not, the taps are exactly symmetric, the decimation pass's offsets
// and taps are the nonzero right half, and the DC gain is p to 1e-15 of p.
func TestResamplePlanTaps(t *testing.T) {
	for _, pq := range [][2]int{{1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 5}, {3, 7}, {2, 3}, {2, 1}, {5, 1}} {
		rp := resamplePlanFor(pq[0], pq[1])
		maxPQ, h, half := max(pq[0], pq[1]), rp.h, rp.half
		if half != 10*maxPQ || len(h) != 2*half+1 {
			t.Fatalf("%d/%d: %d taps about %d", pq[0], pq[1], len(h), half)
		}
		var sum float64
		var offs []int
		for d := 0; d <= half; d++ {
			if math.Float64bits(h[half-d]) != math.Float64bits(h[half+d]) {
				t.Fatalf("%d/%d: h[half-%d] = %v, h[half+%d] = %v", pq[0], pq[1], d, h[half-d], d, h[half+d])
			}
			if zero := d > 0 && d%maxPQ == 0; zero != (h[half+d] == 0) || math.Signbit(h[half+d]) && zero {
				t.Fatalf("%d/%d: tap at offset %d is %v", pq[0], pq[1], d, h[half+d])
			}
			if d > 0 && h[half+d] != 0 {
				offs = append(offs, d)
			}
		}
		for _, v := range h {
			sum += v
		}
		if d := math.Abs(sum-float64(pq[0])) / float64(pq[0]); d > 1e-15 {
			t.Errorf("%d/%d: DC gain %v, want %d (off by %g of it)", pq[0], pq[1], sum, pq[0], d)
		}
		if len(rp.offs) != len(offs) || len(rp.taps) != len(offs) {
			t.Fatalf("%d/%d: %d offsets and %d taps, want %d", pq[0], pq[1], len(rp.offs), len(rp.taps), len(offs))
		}
		for j, d := range offs {
			if rp.offs[j] != d || math.Float64bits(rp.taps[j]) != math.Float64bits(h[half+d]) {
				t.Fatalf("%d/%d: folded tap %d is offset %d value %v, want %d and %v", pq[0], pq[1], j, rp.offs[j], rp.taps[j], d, h[half+d])
			}
		}
		if pq[0] == 1 && len(offs) != half-half/maxPQ {
			t.Errorf("1/%d: %d products an output, want %d", pq[1], 1+len(offs), 1+half-half/maxPQ)
		}
	}
}

// parentHalfBand is the 2:1 design as computed before its zero taps were
// set to 0 and its halves mirrored: the taps at even offsets from the
// centre came out near 1e-17, and the halves differed in their last bits.
var parentHalfBand = []float64{
	-7.15897095088645e-19, -0.0010514587726751217, 1.8542998243318982e-18,
	0.0025089668121477155, -3.4941452339509635e-18, -0.004894834339287571,
	5.606451162374803e-18, 0.008556559002481406, -8.091013094452986e-18,
	-0.013989973238435148, 1.0781132014374588e-17, 0.02202312057407464,
	-1.3459677422897381e-17, -0.034340179881744905, 1.5884600682954156e-17,
	0.05528828391185703, -1.7820207087948575e-17, -0.10093019739773387,
	1.906929683846362e-17, 0.31670034568030075, 0.5002587352980303,
	0.31670034568030075, 1.906929683846362e-17, -0.10093019739773387,
	-1.7820207087948575e-17, 0.05528828391185703, 1.5884600682954156e-17,
	-0.034340179881744905, -1.345967742289739e-17, 0.02202312057407464,
	1.0781132014374588e-17, -0.013989973238435148, -8.091013094452981e-18,
	0.00855655900248141, 5.606451162374803e-18, -0.004894834339287571,
	-3.4941452339509635e-18, 0.002508966812147714, 1.8542998243318998e-18,
	-0.0010514587726751217, -7.15897095088645e-19,
}

// TestResampleNearParentDesign holds the 2:1 decimator to the design it
// replaced: every output within 2e-15 of the largest output's magnitude of
// the parent taps' direct sum, on unit-variance noise at every edge length
// and the benchmark's row length. Dropping taps of ~1e-17 and folding the
// pairs moves outputs by 4.7e-16 of the largest at most on that row.
func TestResampleNearParentDesign(t *testing.T) {
	const bound = 2e-15
	rng := rand.New(rand.NewSource(59))
	half := len(parentHalfBand) / 2
	for _, n := range []int{1, 2, 20, 21, 41, 42, 83, 1000, 64000} {
		x := randFloats(rng, n)
		got := make([]float64, ResampleLen(n, 1, 2))
		if err := ResampleInto(got, x, 1, 2, nil); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(got))
		var peak float64
		for m := range want {
			for k, h := range parentHalfBand {
				if i := 2*m + half - k; i >= 0 && i < n {
					want[m] += h * x[i]
				}
			}
			peak = max(peak, math.Abs(want[m]))
		}
		for m := range want {
			if d := math.Abs(got[m] - want[m]); d > bound*peak {
				t.Fatalf("n=%d: output %d = %v, parent design %v (off by %g, %g of the largest)", n, m, got[m], want[m], d, d/peak)
			}
		}
	}
}

// TestResampleNaNReach: a decimation output is NaN exactly when a NaN sits
// at one of its nonzero taps — the centre x[mq], or an offset d ≤ 10q that
// is not a multiple of q — at the edges and through the eight-output pass.
func TestResampleNaNReach(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, c := range []struct{ q, n int }{{2, 97}, {3, 131}, {2, 15}, {3, 40}} {
		half := 10 * c.q
		x := randFloats(rng, c.n)
		dst := make([]float64, ResampleLen(c.n, 1, c.q))
		for i := range x {
			v := x[i]
			x[i] = math.NaN()
			if err := ResampleInto(dst, x, 1, c.q, nil); err != nil {
				t.Fatal(err)
			}
			x[i] = v
			for m, y := range dst {
				d := i - m*c.q
				if d < 0 {
					d = -d
				}
				if reach := d == 0 || d <= half && d%c.q != 0; math.IsNaN(y) != reach {
					t.Fatalf("q=%d n=%d: NaN at %d gives output %d = %v, want NaN %v", c.q, c.n, i, m, y, reach)
				}
			}
		}
	}
}

// BenchmarkResampleDecimate is the interferometry row's resample step: one
// 64 000-sample channel decimated 2:1.
func BenchmarkResampleDecimate(b *testing.B) {
	x := randFloats(rand.New(rand.NewSource(1)), 64000)
	dst := make([]float64, ResampleLen(len(x), 1, 2))
	if err := ResampleInto(dst, x, 1, 2, nil); err != nil { // warm the plan cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ResampleInto(dst, x, 1, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecimate(t *testing.T) {
	rate := 500.0
	x := sine(4000, 5, rate)
	y := make([]float64, ResampleLen(len(x), 1, 4))
	if err := ResampleInto(y, x, 1, 4, nil); err != nil {
		t.Fatal(err)
	}
	if len(y) != 1000 {
		t.Fatalf("decimated length = %d, want 1000", len(y))
	}
	want := sine(1000, 5, 125)
	for i := 100; i < 900; i++ {
		if d := math.Abs(y[i] - want[i]); d > 1e-2 {
			t.Fatalf("decimated[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	if err := ResampleInto(nil, x, 1, 0, nil); err == nil {
		t.Error("factor 0 should fail")
	}
}

func TestGCD(t *testing.T) {
	cases := [][3]int{{12, 8, 4}, {7, 3, 1}, {100, 10, 10}, {5, 5, 5}}
	for _, c := range cases {
		if got := gcd(c[0], c[1]); got != c[2] {
			t.Errorf("gcd(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
