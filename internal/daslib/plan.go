package daslib

import (
	"math"
	"math/cmplx"
	"sync"
)

// Plan holds everything size-dependent a transform of length n needs:
// the twiddle and bit-reversal swap tables for the power-of-two kernel and,
// for non-power-of-two lengths, the Bluestein chirp plus the precomputed
// forward transform of the chirp convolution kernel (one of the three FFTs
// the classic per-call Bluestein pays, hoisted out of the hot loop
// entirely).
//
// Plans are immutable and safe for concurrent use; PlanFFT caches one per
// size, so DAS pipelines that transform the same window length millions of
// times build each plan exactly once.
type Plan struct {
	n     int
	tw    []complex128 // twiddles for size n (power-of-two path), else nil
	swaps []int32      // bit-reversal swap pairs for size n (power-of-two path)

	// Bluestein state (n not a power of two):
	conv  *Plan        // plan of the power-of-two convolution length ≥ 2n-1
	chirp []complex128 // exp(-iπ·k²/n), k in [0, n)
	bhat  []complex128 // forward FFT of the conjugate-chirp kernel, length conv.n
}

// planCache maps transform size to its Plan. Guarded by a plain RWMutex so
// the hit path performs no interface boxing (sync.Map would allocate per
// lookup for keys ≥ 256).
var planCache = struct {
	sync.RWMutex
	m map[int]*Plan
}{m: map[int]*Plan{}}

// PlanFFT returns the (cached) plan for transforms of length n ≥ 1.
func PlanFFT(n int) *Plan {
	planCache.RLock()
	p, ok := planCache.m[n]
	planCache.RUnlock()
	if ok {
		return p
	}
	p = newPlan(n)
	planCache.Lock()
	if have, ok := planCache.m[n]; ok {
		p = have
	} else {
		planCache.m[n] = p
	}
	planCache.Unlock()
	return p
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	if n <= 1 {
		return p
	}
	if n&(n-1) == 0 {
		p.tw = twiddles(n)
		p.swaps = bitReversalSwaps(n)
		return p
	}
	p.conv = PlanFFT(NextPow2(2*n - 1))
	m := p.conv.n
	// chirp[k] = exp(-iπ k²/n); k² mod 2n avoids precision loss for large k.
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(kk) / float64(n))
		p.chirp[k] = complex(c, s)
	}
	p.bhat = make([]complex128, m)
	for k := 0; k < n; k++ {
		bc := cmplx.Conj(p.chirp[k])
		p.bhat[k] = bc
		if k > 0 {
			p.bhat[m-k] = bc
		}
	}
	p.conv.fftPow2(p.bhat)
	return p
}

// FFTInto computes the forward DFT of src into dst (both length n; the
// paper's Das_fft). dst may alias src. Power-of-two lengths use an iterative
// radix-2 Cooley-Tukey; other lengths use Bluestein's chirp-z algorithm, so
// the cost is O(n log n) for every n. After the plan and scratch are warm the
// call allocates nothing.
func (p *Plan) FFTInto(dst, src []complex128, s *Scratch) {
	checkLen("FFTInto dst", len(dst), p.n)
	checkLen("FFTInto src", len(src), p.n)
	if p.n <= 1 {
		copy(dst, src)
		return
	}
	if p.tw != nil {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		p.fftPow2(dst)
		return
	}
	p.bluesteinInto(dst, src, s)
}

// bluesteinInto computes an arbitrary-length DFT as a convolution of chirps,
// using the plan's precomputed kernel spectrum: two power-of-two transforms
// per call instead of the classic three.
func (p *Plan) bluesteinInto(dst, src []complex128, s *Scratch) {
	n, m := p.n, p.conv.n
	a := s.Complex(m)
	for k := 0; k < n; k++ {
		a[k] = src[k] * p.chirp[k]
	}
	p.conv.fftPow2(a)
	for i := range a {
		a[i] *= p.bhat[i]
	}
	// Inverse pow-2 FFT of a via the conjugation identity.
	for i := range a {
		a[i] = cmplx.Conj(a[i])
	}
	p.conv.fftPow2(a)
	inv := 1 / float64(m)
	for k := 0; k < n; k++ {
		dst[k] = cmplx.Conj(a[k]) * complex(inv, 0) * p.chirp[k]
	}
	s.ReleaseComplex(a)
}

// IFFTInto computes the inverse DFT (1/n normalized; the paper's Das_ifft)
// of src into dst (both length n). dst may alias src.
func (p *Plan) IFFTInto(dst, src []complex128, s *Scratch) {
	checkLen("IFFTInto dst", len(dst), p.n)
	checkLen("IFFTInto src", len(src), p.n)
	for i, v := range src {
		dst[i] = cmplx.Conj(v)
	}
	if p.n > 1 {
		p.FFTInto(dst, dst, s)
	}
	conjScale(dst, 1/float64(p.n))
}

// RFFTInto computes the full n-point DFT of the real signal x into dst
// (len(dst) == len(x)). Even lengths are transformed via an n/2-point
// complex FFT of the packed signal z[k] = x[2k] + i·x[2k+1] — half the
// flops and memory traffic of the complex transform; odd lengths fall back
// to the complex path.
func RFFTInto(dst []complex128, x []float64, s *Scratch) {
	checkLen("RFFTInto dst", len(dst), len(x))
	rfftZeroPad(dst, x, s)
}

// rfftZeroPad computes the len(dst)-point DFT of x zero-padded (or not) to
// len(dst) ≥ len(x). This is the core the FFT-correlation kernels share: it
// never materializes the padded real signal.
func rfftZeroPad(dst []complex128, x []float64, s *Scratch) {
	m := len(dst)
	if m == 0 {
		return
	}
	if len(x) > m {
		panic("daslib: rfftZeroPad: input longer than transform")
	}
	if m == 1 {
		if len(x) == 1 {
			dst[0] = complex(x[0], 0)
		} else {
			dst[0] = 0
		}
		return
	}
	if m&1 == 1 {
		// Odd length: widen into the complex plan.
		cx := s.Complex(m)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		PlanFFT(m).FFTInto(dst, cx, s)
		s.ReleaseComplex(cx)
		return
	}
	half := m / 2
	z := s.Complex(half)
	for k := 0; 2*k < len(x); k++ {
		re := x[2*k]
		im := 0.0
		if 2*k+1 < len(x) {
			im = x[2*k+1]
		}
		z[k] = complex(re, im)
	}
	PlanFFT(half).FFTInto(z, z, s)
	// Untangle: with E/O the half-length DFTs of the even/odd samples,
	// Z[k] = E[k] + i·O[k], so E[k] = (Z[k]+conj(Z[-k]))/2 and
	// O[k] = (Z[k]-conj(Z[-k]))/(2i); then X[k] = E[k] + w^k·O[k] and
	// X[k+n/2] = E[k] - w^k·O[k] with w = exp(-2πi/n).
	tw := twiddles(m) // tw[k] = exp(-2πi·k/m), k < m/2 — exactly what we need
	for k := 0; k < half; k++ {
		zk := z[k]
		zc := cmplx.Conj(z[(half-k)%half])
		e := (zk + zc) * complex(0.5, 0)
		o := (zk - zc) * complex(0, -0.5)
		wo := tw[k] * o
		dst[k] = e + wo
		dst[k+half] = e - wo
	}
	s.ReleaseComplex(z)
}

// IRFFTInto computes the real inverse DFT of a conjugate-symmetric spectrum
// into dst (len(dst) == len(spec)). Even lengths invert via an n/2-point
// complex inverse transform; odd lengths fall back to the complex path and
// keep the real part.
func IRFFTInto(dst []float64, spec []complex128, s *Scratch) {
	n := len(spec)
	checkLen("IRFFTInto dst", len(dst), n)
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = real(spec[0])
		return
	}
	if n&1 == 1 {
		cx := s.Complex(n)
		PlanFFT(n).IFFTInto(cx, spec, s)
		for i, v := range cx {
			dst[i] = real(v)
		}
		s.ReleaseComplex(cx)
		return
	}
	half := n / 2
	z := s.Complex(half)
	tw := twiddles(n)
	for k := 0; k < half; k++ {
		a := spec[k]
		b := spec[k+half]
		e := (a + b) * complex(0.5, 0)
		o := (a - b) * complex(0.5, 0) * cmplx.Conj(tw[k])
		z[k] = e + complex(0, 1)*o
	}
	PlanFFT(half).IFFTInto(z, z, s)
	for k := 0; k < half; k++ {
		dst[2*k] = real(z[k])
		dst[2*k+1] = imag(z[k])
	}
	s.ReleaseComplex(z)
}
