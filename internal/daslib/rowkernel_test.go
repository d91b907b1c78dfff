package daslib

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The Algorithm 3 row kernels promise the same operations in the same order
// as the loops they replaced, so every output bit is unchanged. The
// replaced loops are kept below as oracles, verbatim but for their names,
// and the properties compare bit patterns (math.Float64bits), so a flipped
// zero sign or a NaN payload counts as a difference.

// oracleFilterCore is the slice-state transposed direct-form II loop
// FiltFiltInto ran before the delay line moved into registers.
func oracleFilterCore(bn, an, x, y, z []float64) {
	n := len(bn)
	for i, xv := range x {
		var yv float64
		if n == 1 {
			yv = bn[0] * xv
		} else {
			yv = bn[0]*xv + z[0]
			for j := 0; j < n-2; j++ {
				z[j] = bn[j+1]*xv + z[j+1] - an[j+1]*yv
			}
			z[n-2] = bn[n-1]*xv - an[n-1]*yv
		}
		y[i] = yv
	}
}

// oracleFiltFilt is the reverse-based filtfilt procedure: build the odd
// extension, filter it in place, reverse, filter, reverse, trim.
func oracleFiltFilt(fp *FilterPlan, dst, x []float64) {
	if fp.padlen == 0 {
		oracleFilterCore(fp.bn, fp.an, x, dst, nil)
		return
	}
	ext := make([]float64, len(x)+2*fp.padlen)
	idx := 0
	for i := fp.padlen; i >= 1; i-- {
		ext[idx] = 2*x[0] - x[i]
		idx++
	}
	copy(ext[idx:], x)
	idx += len(x)
	for i := len(x) - 2; i >= len(x)-1-fp.padlen; i-- {
		ext[idx] = 2*x[len(x)-1] - x[i]
		idx++
	}
	zi := make([]float64, len(fp.ziUnit))
	for i, v := range fp.ziUnit {
		zi[i] = v * ext[0]
	}
	oracleFilterCore(fp.bn, fp.an, ext, ext, zi)
	reverse(ext)
	for i, v := range fp.ziUnit {
		zi[i] = v * ext[0]
	}
	oracleFilterCore(fp.bn, fp.an, ext, ext, zi)
	reverse(ext)
	copy(dst, ext[fp.padlen:fp.padlen+len(x)])
}

// oracleFFTPow2 is the radix-2 transform with every stage on the general
// re-slicing loop.
func oracleFFTPow2(p *Plan, x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	swaps := p.swaps
	for k := 0; k+1 < len(swaps); k += 2 {
		i, j := swaps[k], swaps[k+1]
		x[i], x[j] = x[j], x[i]
	}
	tw := p.tw
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+half], x[start+half:start+size]
			hi = hi[:len(lo)]
			for k, a := range lo {
				b := hi[k] * tw[k*stride]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// oracleDetrend is the interferometry row's front before the NaN copy and
// the mean shared a pass: copy with NaN read as zero, then the in-place
// detrend.
func oracleDetrend(x []float64) []float64 {
	w := make([]float64, len(x))
	for i, v := range x {
		if math.IsNaN(v) {
			w[i] = 0
		} else {
			w[i] = v
		}
	}
	n := len(w)
	if n == 0 {
		return w
	}
	if n == 1 {
		w[0] = 0
		return w
	}
	tMean := float64(n-1) / 2
	var xMean, num, den float64
	for _, v := range w {
		xMean += v
	}
	xMean /= float64(n)
	for i, v := range w {
		dt := float64(i) - tMean
		num += dt * (v - xMean)
		den += dt * dt
	}
	slope := num / den
	for i, v := range w {
		w[i] = v - (xMean + slope*(float64(i)-tMean))
	}
	return w
}

// sameBits fails unless got and want hold the same bit patterns.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: differs at %d: %v (%#x) vs %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// oracleRows are the filter inputs: noise, noise with exact-zero runs of
// both signs, an all-zero row, a constant row and a row of negative zeros.
func oracleRows(rng *rand.Rand, n int) map[string][]float64 {
	noise := randFloats(rng, n)
	gappy := randFloats(rng, n)
	for i := range gappy {
		switch (i / 7) % 5 {
		case 1:
			gappy[i] = 0
		case 3:
			gappy[i] = math.Copysign(0, -1)
		}
	}
	zeros := make([]float64, n)
	constant := make([]float64, n)
	negZeros := make([]float64, n)
	for i := range constant {
		constant[i] = 2.5
		negZeros[i] = math.Copysign(0, -1)
	}
	return map[string][]float64{
		"noise": noise, "zero runs": gappy, "all zero": zeros,
		"constant": constant, "negative zeros": negZeros,
	}
}

type oracleDesign struct {
	name string
	b, a []float64
}

// oracleDesigns are every band kind with at most five coefficients (the
// register loop), lowpass orders 1–4 among them, a one-coefficient gain
// and the benchmark's order-4 bandpass (nine coefficients, the slice loop).
func oracleDesigns(t *testing.T) []oracleDesign {
	var ds []oracleDesign
	add := func(order int, band FilterBand, cut ...float64) {
		b, a, err := Butter(order, band, cut...)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, oracleDesign{fmt.Sprintf("%v order %d", band, order), b, a})
	}
	for order := 1; order <= 4; order++ {
		add(order, Lowpass, 0.25)
		add(order, Highpass, 0.1)
	}
	for order := 1; order <= 2; order++ {
		add(order, Bandpass, 0.1, 0.4)
		add(order, Bandstop, 0.1, 0.4)
	}
	add(4, Bandpass, 0.05, 0.4)
	ds = append(ds, oracleDesign{"gain", []float64{0.75}, []float64{1}})
	return ds
}

// TestFilterRevMatchesParentLoop: the back-to-front filter loop, register
// and slice paths alike, gives the slice loop's outputs reversed and its
// final delay line, bit for bit, from a zero and from a random state.
func TestFilterRevMatchesParentLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range oracleDesigns(t) {
		fp, err := NewFilterPlan(d.b, d.a)
		if err != nil {
			t.Fatal(err)
		}
		m := len(fp.bn) - 1
		for _, n := range []int{1, 2, 17, 1000} {
			for name, x := range oracleRows(rng, n) {
				for _, zi := range [][]float64{make([]float64, m), randFloats(rng, m)} {
					zWant := append([]float64(nil), zi...)
					want := make([]float64, n)
					oracleFilterCore(fp.bn, fp.an, x, want, zWant)
					reverse(want)
					zGot := append([]float64(nil), zi...)
					got := make([]float64, n)
					filterRev(fp.bn, fp.an, x, got, zGot)
					label := fmt.Sprintf("%s n=%d %s", d.name, n, name)
					sameBits(t, label+" outputs", got, want)
					sameBits(t, label+" final state", zGot, zWant)
				}
			}
		}
	}
}

// TestFiltFiltIntoMatchesParentProcedure: FiltFiltInto, out of place and
// aliased on a dirty arena, equals the reverse-based procedure bit for bit
// from just above the pad length to a 64 000-sample row.
func TestFiltFiltIntoMatchesParentProcedure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range oracleDesigns(t) {
		fp, err := NewFilterPlan(d.b, d.a)
		if err != nil {
			t.Fatal(err)
		}
		lengths := []int{fp.padlen + 1, fp.padlen + 2, 2*fp.padlen + 1, 333, 4096}
		if d.name == "lowpass order 3" { // the interferometry design
			lengths = append(lengths, 64000)
		}
		for _, n := range lengths {
			for name, x := range oracleRows(rng, n) {
				label := fmt.Sprintf("%s n=%d %s", d.name, n, name)
				want := make([]float64, n)
				oracleFiltFilt(fp, want, x)
				got := make([]float64, n)
				onDirtyArena(func(s *Scratch) {
					if err := fp.FiltFiltInto(got, x, s); err != nil {
						t.Fatal(err)
					}
				})
				sameBits(t, label, got, want)
				onDirtyArena(func(s *Scratch) {
					copy(got, x)
					if err := fp.FiltFiltInto(got, got, s); err != nil {
						t.Fatal(err)
					}
				})
				sameBits(t, label+" aliased", got, want)
			}
		}
	}
}

// TestFFTPow2MatchesParentStages: the flat size-2 and size-4 stages leave
// every power-of-two transform from 1 to 8192 points bit-identical.
func TestFFTPow2MatchesParentStages(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 1; n <= 8192; n <<= 1 {
		p := PlanFFT(n)
		x := randComplex(rng, n)
		for i := 0; i < n; i += 5 { // zeros of both signs on either part
			x[i] = complex(math.Copysign(0, float64(i%2)-0.5), real(x[i]))
		}
		want := append([]complex128(nil), x...)
		oracleFFTPow2(p, want)
		got := append([]complex128(nil), x...)
		p.fftPow2(got)
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("n=%d: bin %d = %v, parent stages %v", n, i, g, w)
			}
		}
	}
}

// TestDetrendIntoMatchesNaNCopyThenDetrend: one pass for the NaN scan and
// the mean gives the bits of the copy followed by the in-place detrend, on
// rows with NaN gaps, out of place and aliased.
func TestDetrendIntoMatchesNaNCopyThenDetrend(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{0, 1, 2, 3, 97, 1000, 64000} {
		x := randFloats(rng, n)
		for i := range x {
			x[i] = 40 + 0.01*float64(i) + x[i] // an offset and a trend to remove
			if (i/50)%4 == 1 {
				x[i] = math.NaN() // a gap
			}
		}
		if n > 0 {
			x[0] = math.NaN()
		}
		want := oracleDetrend(x)
		got := make([]float64, n)
		DetrendInto(got, x)
		sameBits(t, fmt.Sprintf("n=%d", n), got, want)
		copy(got, x)
		DetrendInto(got, got)
		sameBits(t, fmt.Sprintf("n=%d aliased", n), got, want)
	}
}

// BenchmarkFiltFiltInto is the interferometry row's zero-phase filter: the
// order-3 lowpass at a quarter of Nyquist (rate/8) over 64 000 samples, in
// place on a warm arena.
func BenchmarkFiltFiltInto(b *testing.B) {
	bc, ac, err := Butter(3, Lowpass, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := NewFilterPlan(bc, ac)
	if err != nil {
		b.Fatal(err)
	}
	x := randFloats(rand.New(rand.NewSource(46)), 64000)
	dst, s := make([]float64, len(x)), NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, x)
		if err := fp.FiltFiltInto(dst, dst, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)), "ns/sample")
}
