package daslib

import (
	"fmt"
	"math"
	"sync"
)

// gcd returns the greatest common divisor of a and b (both positive).
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// resamplePlan holds the polyphase anti-aliasing FIR for a reduced p/q
// ratio: the design (Kaiser window, windowed sinc, DC normalization) is
// computed once per ratio and shared.
type resamplePlan struct {
	p, q   int
	half   int
	length int
	h      []float64
	hrev   []float64 // h reversed: hrev[j] = h[length-1-j], the decimation pass's window-aligned taps
}

var resampleCache = struct {
	sync.RWMutex
	m map[[2]int]*resamplePlan
}{m: map[[2]int]*resamplePlan{}}

// resamplePlanFor returns the cached plan for the already-gcd-reduced
// ratio p/q.
func resamplePlanFor(p, q int) *resamplePlan {
	key := [2]int{p, q}
	resampleCache.RLock()
	rp, ok := resampleCache.m[key]
	resampleCache.RUnlock()
	if ok {
		return rp
	}
	// Anti-aliasing lowpass at min(π/p, π/q) in the upsampled domain.
	// MATLAB default: N = 10, Kaiser beta = 5, length 2*N*max(p,q)+1.
	const nTaps = 10
	const beta = 5.0
	maxPQ := max(p, q)
	half := nTaps * maxPQ
	length := 2*half + 1
	fc := 1.0 / float64(2*maxPQ) // cycles/sample in the upsampled domain
	win := kaiserWin(length, beta)
	h := make([]float64, length)
	var sum float64
	for i := range h {
		t := float64(i - half)
		var s float64
		if t == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		h[i] = s * win[i]
		sum += h[i]
	}
	// Normalize DC gain to p (upsampling inserts p-1 zeros, which divides
	// the signal's amplitude by p before filtering).
	scale := float64(p) / sum
	for i := range h {
		h[i] *= scale
	}
	hrev := make([]float64, length)
	for i, v := range h {
		hrev[length-1-i] = v
	}
	rp = &resamplePlan{p: p, q: q, half: half, length: length, h: h, hrev: hrev}
	resampleCache.Lock()
	if have, ok := resampleCache.m[key]; ok {
		rp = have
	} else {
		resampleCache.m[key] = rp
	}
	resampleCache.Unlock()
	return rp
}

// ResampleLen returns the output length of ResampleInto for an input of
// length n and factors p/q: ceil(n·p/q).
func ResampleLen(n, p, q int) int {
	if n == 0 || p < 1 || q < 1 {
		return 0
	}
	g := gcd(p, q)
	p, q = p/g, q/g
	return (n*p + q - 1) / q
}

// ResampleInto changes the sample rate of x by the rational factor p/q using
// a polyphase anti-aliasing FIR (Kaiser-windowed sinc), matching MATLAB's
// resample(x, p, q) — the paper's Das_resample. dst has ResampleLen(len(x),
// p, q) = ceil(len(x)·p/q) samples and is group-delay compensated, so dst[k]
// corresponds to x at time k·q/p. The FIR design comes from the per-ratio
// plan cache and the polyphase loop writes straight into dst, so the call
// does not allocate. The scratch parameter is accepted for signature
// symmetry with the other Into kernels; this kernel needs no intermediates.
func ResampleInto(dst, x []float64, p, q int, _ *Scratch) error {
	if p < 1 || q < 1 {
		return fmt.Errorf("daslib: Resample factors must be positive, got %d/%d", p, q)
	}
	outLen := ResampleLen(len(x), p, q)
	checkLen("ResampleInto dst", len(dst), outLen)
	if len(x) == 0 {
		return nil
	}
	g := gcd(p, q)
	p, q = p/g, q/g
	if p == 1 && q == 1 {
		copy(dst, x)
		return nil
	}
	rp := resamplePlanFor(p, q)
	if p > 1 {
		rp.scalar(dst, x, 0, outLen)
		return nil
	}
	// Decimation (p == 1): y[m] = sum_k h[k] · x[m*q + half - k]. Outputs
	// whose whole tap window lies inside x — m*q in [half, len(x)-1-half] —
	// are computed four per pass over re-sliced windows, each accumulator
	// summing its taps in the scalar loop's order (k ascending), so the
	// result is bit-identical; the edges keep the scalar loop.
	hrev, half := rp.hrev, rp.half
	lo := min((half+q-1)/q, outLen)
	hi := lo
	if last := len(x) - 1 - half; last >= lo*q {
		hi = last/q + 1
	}
	rp.scalar(dst, x, 0, lo)
	m := lo
	for ; m+4 <= hi; m += 4 {
		c := m*q - half // first sample of output m's window
		w0 := x[c:][:len(hrev)]
		w1 := x[c+q:][:len(hrev)]
		w2 := x[c+2*q:][:len(hrev)]
		w3 := x[c+3*q:][:len(hrev)]
		var a0, a1, a2, a3 float64
		for j := len(hrev) - 1; j >= 0; j-- { // j descending = tap k ascending
			hk := hrev[j]
			a0 += hk * w0[j]
			a1 += hk * w1[j]
			a2 += hk * w2[j]
			a3 += hk * w3[j]
		}
		dst[m], dst[m+1], dst[m+2], dst[m+3] = a0, a1, a2, a3
	}
	rp.scalar(dst, x, m, outLen)
	return nil
}

// scalar computes outputs [lo, hi) of the polyphase resample one serial add
// chain at a time: y[m] = sum_k h[k] · xup[m*q + half - k], where xup[i] =
// x[i/p] when i % p == 0. The +half centers the filter, compensating group
// delay. Along one polyphase branch the source index decreases by exactly
// one per tap, so it is carried down the loop instead of divided out. This
// is the reference summation order the four-output decimation pass
// reproduces (TestResampleDecimateMatchesScalar).
func (rp *resamplePlan) scalar(dst, x []float64, lo, hi int) {
	p, q, h, half, length := rp.p, rp.q, rp.h, rp.half, rp.length
	for m := lo; m < hi; m++ {
		center := m*q + half
		k := center % p
		xi := (center - k) / p
		if xi >= len(x) {
			// Taps past the end of x contribute nothing; jump to the first
			// in-range source sample.
			k += (xi - len(x) + 1) * p
			xi = len(x) - 1
		}
		var acc float64
		for ; k < length && xi >= 0; k, xi = k+p, xi-1 {
			acc += h[k] * x[xi]
		}
		dst[m] = acc
	}
}

// Decimate reduces the sample rate by an integer factor r after zero-phase
// Butterworth lowpass filtering (order 8 at 0.8·Nyquist/r), matching
// MATLAB's decimate defaults.
func Decimate(x []float64, r int) ([]float64, error) {
	if r < 1 {
		return nil, fmt.Errorf("daslib: Decimate factor must be ≥ 1, got %d", r)
	}
	if r == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	y, err := butterFiltFilt(x, 8, Lowpass, 0.8/float64(r))
	if err != nil {
		return nil, err
	}
	out := make([]float64, (len(x)+r-1)/r)
	for i := range out {
		out[i] = y[i*r]
	}
	return out, nil
}
