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
	if r := RMS(y[200:1800]); r > 0.05 {
		t.Errorf("aliased energy RMS = %g, want ≈0 (input RMS %g)", r, RMS(x))
	}
}

// TestResampleDecimateMatchesScalar pins the four-output decimation pass to
// the scalar add chain it replaces, bit for bit: every length that puts the
// interior/edge boundaries and the 4-wide remainder somewhere different,
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
			rp.scalar(want, x, 0, len(want))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d q=%d: output %d = %v, scalar loop %v", n, q, i, got[i], want[i])
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ResampleInto(dst, x, 1, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecimate(t *testing.T) {
	rate := 500.0
	x := sine(4000, 5, rate)
	y, err := Decimate(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 1000 {
		t.Fatalf("Decimate length = %d, want 1000", len(y))
	}
	want := sine(1000, 5, 125)
	for i := 100; i < 900; i++ {
		if d := math.Abs(y[i] - want[i]); d > 1e-2 {
			t.Fatalf("decimated[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	if _, err := Decimate(x, 0); err == nil {
		t.Error("factor 0 should fail")
	}
	y, err = Decimate(x[:10], 1)
	if err != nil || len(y) != 10 {
		t.Error("factor 1 should copy")
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
