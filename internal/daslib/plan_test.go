package daslib

import (
	"math"
	"math/rand"
	"testing"
)

// Every kernel has one signature, so what these tests pin is the kernel
// against a naive oracle (dftNaive, xcorrDirectLags, resampleDirect,
// decimateFoldedDirect) and the arena against its absence: a kernel run on a
// reused arena whose buffers another call left dirty must produce the bits
// it produces with a nil arena — over randomized inputs, including odd and
// prime lengths that take the Bluestein path — so a kernel that reads a
// borrowed buffer before writing it, or an "optimization" that makes
// rounding depend on the arena, fails loudly.

// testLengths mixes power-of-two (radix-2), odd, and prime (Bluestein)
// sizes.
var testLengths = []int{1, 2, 3, 8, 33, 61, 97, 127, 128, 1000, 4096}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func bitIdenticalC(t *testing.T, name string, n int, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: length %d, want %d", name, n, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d: differs at %d: %v vs %v", name, n, i, got[i], want[i])
		}
	}
}

func bitIdenticalF(t *testing.T, name string, n int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: length %d, want %d", name, n, len(got), len(want))
	}
	for i := range got {
		// NaN != NaN, so compare bit patterns via the == shortcut plus an
		// explicit both-NaN case.
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s n=%d: differs at %d: %v vs %v", name, n, i, got[i], want[i])
		}
	}
}

// poison overwrites every buffer on the arena's free lists with NaN, over its
// whole capacity — what the next borrower finds if nothing clears it.
func poison(s *Scratch) {
	for _, b := range s.c {
		b = b[:cap(b)]
		for i := range b {
			b[i] = complex(math.NaN(), math.NaN())
		}
	}
	for _, b := range s.f {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
}

// onDirtyArena runs kernel twice on one arena, poisoning the buffers the
// first call returned before the second borrows them: the second call is
// what a thread's n-th row sees.
func onDirtyArena(kernel func(s *Scratch)) {
	s := NewScratch()
	kernel(s)
	poison(s)
	kernel(s)
}

// TestScratchBorrowContents pins the arena's contract: a Float borrow is
// the buffer as its last borrower left it, a Complex borrow is zeroed (the
// correlation accumulator adds into it), and a fresh allocation is zero.
func TestScratchBorrowContents(t *testing.T) {
	s := NewScratch()
	f, c := s.Float(64), s.Complex(64)
	for i := range f {
		if f[i] != 0 || c[i] != 0 {
			t.Fatalf("fresh borrow [%d] = %v, %v", i, f[i], c[i])
		}
		f[i], c[i] = math.NaN(), complex(math.NaN(), 1)
	}
	s.ReleaseFloat(f)
	s.ReleaseComplex(c)
	f, c = s.Float(32), s.Complex(32)
	for i := range f {
		if !math.IsNaN(f[i]) || c[i] != 0 {
			t.Fatalf("reused borrow [%d] = %v, %v; want NaN (as left) and 0", i, f[i], c[i])
		}
	}
}

func TestFFTIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range testLengths {
		x := randComplex(rng, n)
		dst := make([]complex128, n)
		onDirtyArena(func(s *Scratch) { PlanFFT(n).FFTInto(dst, x, s) })
		bitIdenticalC(t, "FFTInto", n, dst, fftOf(x))

		onDirtyArena(func(s *Scratch) { PlanFFT(n).IFFTInto(dst, x, s) })
		bitIdenticalC(t, "IFFTInto", n, dst, ifftOf(x))
	}
}

func TestFFTIntoAliased(t *testing.T) {
	// dst == src must work: the engine transforms scratch buffers in place.
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for _, n := range []int{8, 61, 128} {
		x := randComplex(rng, n)
		want := fftOf(x)
		buf := append([]complex128(nil), x...)
		PlanFFT(n).FFTInto(buf, buf, s)
		bitIdenticalC(t, "FFTInto aliased", n, buf, want)
	}
}

// TestRFFTBitIdenticalToFFTReal: the real-input transform and its inverse
// (what FFTReal/IFFTReal spelled) give the same bits on a dirty arena as on
// none — the packed path borrows its half-length buffer, the odd path a
// full-length one.
func TestRFFTBitIdenticalToFFTReal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range testLengths {
		x := randFloats(rng, n)
		spec := rfftOf(x)
		dst := make([]complex128, n)
		onDirtyArena(func(s *Scratch) { RFFTInto(dst, x, s) })
		bitIdenticalC(t, "RFFTInto", n, dst, spec)

		fdst := make([]float64, n)
		onDirtyArena(func(s *Scratch) { IRFFTInto(fdst, spec, s) })
		bitIdenticalF(t, "IRFFTInto", n, fdst, irfftOf(spec))
	}
}

func TestRFFTMatchesNaiveDFT(t *testing.T) {
	// The packed even-length path is new arithmetic, not a shim — check it
	// against the O(n²) reference directly.
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 4, 6, 8, 10, 33, 61, 64, 100, 128} {
		x := randFloats(rng, n)
		xc := make([]complex128, n)
		for i, v := range x {
			xc[i] = complex(v, 0)
		}
		want := dftNaive(xc)
		got := rfftOf(x)
		if d := maxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: RFFT differs from naive DFT by %g", n, d)
		}
	}
}

func TestSpectralWhitenIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{33, 61, 128, 1000} {
		x := randFloats(rng, n)
		want := make([]float64, n)
		SpectralWhitenInto(want, x, 5, 40, 200, nil)
		dst := make([]float64, n)
		onDirtyArena(func(s *Scratch) { SpectralWhitenInto(dst, x, 5, 40, 200, s) })
		bitIdenticalF(t, "SpectralWhitenInto", n, dst, want)
	}
}

func TestFiltFiltIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b, a, err := Butter(4, Bandpass, 5.0/100, 40.0/100)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFilterPlan(b, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{61, 97, 128, 1000, 4096} {
		x := randFloats(rng, n)
		want := make([]float64, n)
		if err := fp.FiltFiltInto(want, x, nil); err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		onDirtyArena(func(s *Scratch) {
			if err := fp.FiltFiltInto(dst, x, s); err != nil {
				t.Fatal(err)
			}
		})
		bitIdenticalF(t, "FiltFiltInto", n, dst, want)
		// In place, as the interferometry row runs it.
		onDirtyArena(func(s *Scratch) {
			copy(dst, x)
			if err := fp.FiltFiltInto(dst, dst, s); err != nil {
				t.Fatal(err)
			}
		})
		bitIdenticalF(t, "FiltFiltInto aliased", n, dst, want)
	}
}

// resampleDirect is the direct-form oracle of the polyphase resampler: x
// zero-stuffed to p times its rate, convolved with the ratio's FIR tap by tap
// — the stuffed zeros included — and every q-th output kept. The polyphase
// loop visits the same non-zero products in the same (tap-ascending) order,
// and adding a signed zero never changes a sum, so the two agree bit for bit.
func resampleDirect(x []float64, p, q int) []float64 {
	g := gcd(p, q)
	p, q = p/g, q/g
	rp := resamplePlanFor(p, q)
	up := make([]float64, len(x)*p)
	for i, v := range x {
		up[i*p] = v
	}
	out := make([]float64, ResampleLen(len(x), p, q))
	for m := range out {
		var acc float64
		for k, h := range rp.h {
			if i := m*q + rp.half - k; i >= 0 && i < len(up) {
				acc += h * up[i]
			}
		}
		out[m] = acc
	}
	return out
}

// decimateFoldedDirect is the direct form of the folded decimator, read off
// the whole tap array: the centre product, then for each offset d ascending
// whose tap is not zero, the tap times the sum of the pair of samples d
// either side, a pair clipped to its in-range sample.
func decimateFoldedDirect(x []float64, q int) []float64 {
	rp := resamplePlanFor(1, q)
	h, half := rp.h, rp.half
	out := make([]float64, ResampleLen(len(x), 1, q))
	for m := range out {
		c := m * q
		acc := h[half] * x[c]
		for d := 1; d <= half; d++ {
			if h[half+d] == 0 {
				continue
			}
			l, r := c-d, c+d
			switch {
			case l >= 0 && r < len(x):
				acc += h[half+d] * (x[l] + x[r])
			case l >= 0:
				acc += h[half+d] * x[l]
			case r < len(x):
				acc += h[half+d] * x[r]
			}
		}
		out[m] = acc
	}
	return out
}

func TestResampleIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, c := range []struct{ n, p, q int }{{128, 1, 2}, {1000, 2, 5}, {997, 3, 7}, {4096, 1, 4}, {50, 4, 6}, {7, 5, 1}} {
		x := randFloats(rng, c.n)
		dst := make([]float64, ResampleLen(c.n, c.p, c.q))
		if err := ResampleInto(dst, x, c.p, c.q, nil); err != nil {
			t.Fatal(err)
		}
		if g := gcd(c.p, c.q); c.p/g == 1 {
			bitIdenticalF(t, "ResampleInto folded", c.n, dst, decimateFoldedDirect(x, c.q/g))
		} else {
			bitIdenticalF(t, "ResampleInto", c.n, dst, resampleDirect(x, c.p, c.q))
		}
	}
}

func TestXCorrIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct{ na, nb int }{{8, 8}, {61, 61}, {97, 33}, {128, 128}, {1000, 1000}} {
		a := randFloats(rng, c.na)
		b := randFloats(rng, c.nb)

		dst := make([]float64, XCorrLen(c.na, c.nb))
		onDirtyArena(func(s *Scratch) { XCorrInto(dst, a, b, s) })
		bitIdenticalF(t, "XCorrInto", c.na, dst, xcorrOf(a, b))

		wantN := make([]float64, len(dst))
		XCorrNormalizedInto(wantN, a, b, nil)
		onDirtyArena(func(s *Scratch) { XCorrNormalizedInto(dst, a, b, s) })
		bitIdenticalF(t, "XCorrNormalizedInto", c.na, dst, wantN)

		// The prepared master borrows three buffers per row.
		mst := PrepareXCorrMasterLags(b, c.na, 3)
		row, wantRow := make([]float64, mst.Len()), make([]float64, mst.Len())
		mst.XCorrNormalizedInto(wantRow, a, nil)
		onDirtyArena(func(s *Scratch) { mst.XCorrNormalizedInto(row, a, s) })
		bitIdenticalF(t, "XCorrMaster", c.na, row, wantRow)
	}
}

// xcorrDirectLags is the direct-form time-domain oracle: lags lo…lo+n-1 of
// the full normalised correlation (index i ↔ lag i-(len(b)-1)), each a plain
// sum over the overlapping samples.
func xcorrDirectLags(a, b []float64, lo, n int) []float64 {
	var ea, eb float64
	for _, v := range a {
		ea += v * v
	}
	for _, v := range b {
		eb += v * v
	}
	norm := 1.0
	if ea != 0 && eb != 0 {
		norm = 1 / math.Sqrt(ea*eb)
	}
	out := make([]float64, n)
	for i := range out {
		lag := lo + i - (len(b) - 1)
		var sum float64
		for k, bv := range b {
			if j := k + lag; j >= 0 && j < len(a) {
				sum += a[j] * bv
			}
		}
		out[i] = sum * norm
	}
	return out
}

// TestXCorrMasterMatchesDirectForm is the overlap-save correlator's
// contract: for any lengths and any maxLag the master's row is the window
// of the direct-form correlation that XCorrLagStart centres on zero lag, to
// 1e-12 absolute on the normalised lags — one block or many, block-aligned
// or not, planned length or the pairwise fallback — and the same window of
// the full-FFT XCorrNormalizedInto.
func TestXCorrMasterMatchesDirectForm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := NewScratch()
	type shape struct{ na, nb, maxLag, lenA int }
	shapes := []shape{
		{1, 1, 0, 1}, {1, 1, 3, 1}, {2, 1, 0, 2}, {61, 61, 0, 61}, {128, 128, 0, 128}, {1000, 1000, 0, 1000},
		{700, 700, 1, 700},     // F = 256, three blocks
		{700, 701, 5, 700},     // last block partial
		{246, 492, 5, 246},     // nb an exact block multiple
		{2000, 1500, 40, 2000}, // F = 512
		{1500, 2000, 40, 1500},
		{300, 300, 128, 300},       // F capped at NextPow2(na+nb-1): one block, banded
		{300, 300, 299, 300},       // ±maxLag covers every lag
		{300, 300, 5000, 300},      // maxLag past both series
		{10, 900, 7, 10},           // a shorter than maxLag+1: window shifted by XCorrLagStart
		{900, 4, 7, 900},           // b shorter than maxLag+1
		{700, 700, 5, 650},         // len(a) != na: pairwise fallback
		{700, 700, 0, 701},         // fallback, all lags
		{32000, 32000, 128, 32000}, // the benchmark row: F = 1024, 42 blocks
	}
	for i := 0; i < 40; i++ {
		na, nb := 1+rng.Intn(900), 1+rng.Intn(900)
		shapes = append(shapes, shape{na, nb, rng.Intn(2 * max(na, nb)), na})
		shapes = append(shapes, shape{na, nb, rng.Intn(24), na})
	}
	check := func(name string, sh shape, a, b []float64) {
		t.Helper()
		mst := PrepareXCorrMasterLags(b, sh.na, sh.maxLag)
		lo, n := xcorrLagWindow(len(a), len(b), sh.maxLag)
		if len(a) == sh.na && mst.Len() != n {
			t.Fatalf("%s %+v: Len() = %d, want %d", name, sh, mst.Len(), n)
		}
		got := make([]float64, n)
		mst.XCorrNormalizedInto(got, a, s)
		want := xcorrDirectLags(a, b, lo, n)
		full := make([]float64, XCorrLen(len(a), len(b)))
		XCorrNormalizedInto(full, a, b, nil)
		fft := full[lo : lo+n]
		for i := range want {
			if d := math.Abs(got[i] - want[i]); !(d <= 1e-12) {
				t.Fatalf("%s %+v: lag index %d = %v, direct form %v (|diff| %g)", name, sh, i, got[i], want[i], d)
			}
			if d := math.Abs(got[i] - fft[i]); !(d <= 1e-12) {
				t.Fatalf("%s %+v: lag index %d = %v, XCorrNormalizedInto %v (|diff| %g)", name, sh, i, got[i], fft[i], d)
			}
		}
	}
	for _, sh := range shapes {
		a, b := randFloats(rng, sh.lenA), randFloats(rng, sh.nb)
		check("random", sh, a, b)
	}
	for _, sh := range shapes[6:12] {
		a, b := randFloats(rng, sh.lenA), randFloats(rng, sh.nb)
		zero := make([]float64, sh.lenA)
		check("zero-energy a", sh, zero, b)
		check("zero-energy b", sh, a, make([]float64, sh.nb))
		for i := range zero {
			zero[i] = 3.5
		}
		check("constant a", sh, zero, b)
	}
}

func TestXCorrMasterFallbackLength(t *testing.T) {
	// A series length the master was not prepared for must still produce
	// the pairwise answer (via the fallback), not garbage.
	rng := rand.New(rand.NewSource(41))
	s := NewScratch()
	b := randFloats(rng, 128)
	mst := PrepareXCorrMaster(b, 128)
	a := randFloats(rng, 100)
	want := make([]float64, XCorrLen(100, 128))
	XCorrNormalizedInto(want, a, b, nil)
	dst := make([]float64, XCorrLen(100, 128))
	mst.XCorrNormalizedInto(dst, a, s)
	bitIdenticalF(t, "XCorrMaster fallback", 100, dst, want)
}

// TestPlannedPathsAllocFree pins the tentpole promise: after warm-up, the
// planned destination-passing kernels perform zero heap allocations per
// call. Runs under -race in CI — the race detector's shadow memory is not
// Go-heap, so AllocsPerRun still reads 0 on a truly alloc-free path.
func TestPlannedPathsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := NewScratch()
	const n = 4096
	x := randFloats(rng, n)
	xc := randComplex(rng, n)
	xcOdd := randComplex(rng, 1000)
	cdst := make([]complex128, n)
	cdstOdd := make([]complex128, 1000)
	fdst := make([]float64, n)

	b, a, err := Butter(4, Bandpass, 0.05, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFilterPlan(b, a)
	if err != nil {
		t.Fatal(err)
	}
	mst := PrepareXCorrMaster(x, n)
	corr := make([]float64, XCorrLen(n, n))
	banded := PrepareXCorrMasterLags(x, n, 16) // F = 256: 19 blocks, both edge segments
	lags := make([]float64, banded.Len())
	res := make([]float64, ResampleLen(n, 1, 4))

	pow2 := PlanFFT(n)
	blue := PlanFFT(1000)
	cases := []struct {
		name string
		fn   func()
	}{
		{"FFTInto/pow2", func() { pow2.FFTInto(cdst, xc, s) }},
		{"FFTInto/bluestein", func() { blue.FFTInto(cdstOdd, xcOdd, s) }},
		{"IFFTInto", func() { pow2.IFFTInto(cdst, xc, s) }},
		{"RFFTInto", func() { RFFTInto(cdst, x, s) }},
		{"IRFFTInto", func() { IRFFTInto(fdst, cdst, s) }},
		{"DetrendInto", func() { DetrendInto(fdst, fdst) }},
		{"TaperInPlace", func() { TaperInPlace(fdst, 0.1) }},
		{"FiltFiltInto", func() {
			if err := fp.FiltFiltInto(fdst, x, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"ResampleInto", func() {
			if err := ResampleInto(res, x, 1, 4, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"XCorrInto", func() { XCorrInto(corr, x, x, s) }},
		{"XCorrNormalizedInto", func() { XCorrNormalizedInto(corr, x, x, s) }},
		{"XCorrMaster", func() { mst.XCorrNormalizedInto(corr, x, s) }},
		{"XCorrMaster/multi-block", func() { banded.XCorrNormalizedInto(lags, x, s) }},
	}
	for _, c := range cases {
		c.fn() // warm plan caches and grow the scratch free lists
		if avg := testing.AllocsPerRun(10, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
}

func FuzzRFFTRoundTrip(f *testing.F) {
	// Seed pow2, odd, and prime lengths so both the packed even path and
	// the complex fallback get fuzzed from the start.
	for _, n := range []int{1, 2, 8, 33, 61, 97, 127, 128, 1024} {
		f.Add(n, int64(1))
	}
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		if n < 1 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := randFloats(rng, n)

		// Round trip within tolerance.
		spec := rfftOf(x)
		back := irfftOf(spec)
		if len(back) != n {
			t.Fatalf("round trip length %d, want %d", len(back), n)
		}
		scale := 0.0
		for _, v := range x {
			scale = math.Max(scale, math.Abs(v))
		}
		tol := 1e-9 * (1 + scale) * float64(n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("n=%d: round trip differs at %d: %g vs %g", n, i, back[i], x[i])
			}
		}

		// Real-input spectra are conjugate-symmetric: spec[k] == conj(spec[n-k]).
		for k := 1; k < n; k++ {
			re := real(spec[k]) - real(spec[n-k])
			im := imag(spec[k]) + imag(spec[n-k])
			if math.Abs(re) > tol || math.Abs(im) > tol {
				t.Fatalf("n=%d: conjugate symmetry violated at bin %d", n, k)
			}
		}

		// And the packed real path must agree with the generic complex
		// transform of the same samples.
		xc := make([]complex128, n)
		for i, v := range x {
			xc[i] = complex(v, 0)
		}
		if d := maxAbsDiff(spec, fftOf(xc)); d > tol {
			t.Fatalf("n=%d: RFFTInto differs from FFTInto of the widened signal by %g", n, d)
		}
	})
}

// BenchmarkDasLibKernels measures the planned kernel paths the engine runs
// per channel; allocs/op must stay 0 (see TestPlannedPathsAllocFree).
func BenchmarkDasLibKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewScratch()
	const n = 4096
	x := randFloats(rng, n)
	cdst := make([]complex128, n)
	fdst := make([]float64, n)
	bb, aa, err := Butter(4, Bandpass, 0.05, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := NewFilterPlan(bb, aa)
	if err != nil {
		b.Fatal(err)
	}
	mst := PrepareXCorrMaster(x, n)
	corr := make([]float64, XCorrLen(n, n))

	b.Run("RFFTInto_4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RFFTInto(cdst, x, s)
		}
	})
	b.Run("FiltFiltInto_4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fp.FiltFiltInto(fdst, x, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("XCorrMaster_4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mst.XCorrNormalizedInto(corr, x, s)
		}
	})
}
