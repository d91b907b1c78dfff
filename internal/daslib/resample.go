package daslib

import (
	"fmt"
	"math"
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
// computed once per ratio and shared. The taps are exactly symmetric about
// h[half], and every tap a nonzero multiple of max(p, q) from the centre is
// exactly 0. The decimation pass sums only the others, folded: offs holds
// the offsets d of the nonzero taps right of the centre, in ascending
// order, and taps[j] = h[half+offs[j]].
type resamplePlan struct {
	p, q   int
	half   int
	length int
	h      []float64
	offs   []int
	taps   []float64
}

var resamplePlans memo[[2]int, *resamplePlan]

// resamplePlanFor returns the cached plan for the already-gcd-reduced
// ratio p/q.
func resamplePlanFor(p, q int) *resamplePlan {
	return resamplePlans.get([2]int{p, q}, newResamplePlan)
}

func newResamplePlan(pq [2]int) *resamplePlan {
	p, q := pq[0], pq[1]
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
	// The right half is designed and mirrored. The ideal response
	// sin(πd/maxPQ)/(πd) is zero at every nonzero multiple of maxPQ; those
	// taps are set to 0 rather than computed as the sine of a rounded
	// multiple of π.
	h[half] = 2 * fc * win[half]
	for d := 1; d <= half; d++ {
		if d%maxPQ != 0 {
			t := float64(d)
			h[half+d] = math.Sin(2*math.Pi*fc*t) / (math.Pi * t) * win[half+d]
		}
		h[half-d] = h[half+d]
	}
	// Normalize DC gain to p (upsampling inserts p-1 zeros, which divides
	// the signal's amplitude by p before filtering).
	var sum float64
	for _, v := range h {
		sum += v
	}
	scale := float64(p) / sum
	for i := range h {
		h[i] *= scale
	}
	rp := &resamplePlan{p: p, q: q, half: half, length: length, h: h}
	for d := 1; d <= half; d++ {
		if h[half+d] != 0 {
			rp.offs = append(rp.offs, d)
			rp.taps = append(rp.taps, h[half+d])
		}
	}
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
// plan cache and the loops write straight into dst, so the call does not
// allocate. The scratch parameter is accepted for signature symmetry with
// the other Into kernels; this kernel needs no intermediates.
//
// NaN: a decimation (p == 1) output sums only the samples at the filter's
// nonzero taps, so it is NaN exactly when one of those holds a NaN; a NaN
// at a tap that is zero by design (an offset from the centre that is a
// nonzero multiple of q) does not reach it. With p > 1 every tap of the
// output's polyphase branch multiplies its sample, zero taps included, so a
// NaN the branch reaches poisons the output.
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
	// Decimation (p == 1), folded: y[m] = h[half]·x[mq] + Σ_d h[half+d] ·
	// (x[mq−d] + x[mq+d]) over the nonzero offsets d, ascending. Outputs
	// whose whole window lies inside x — mq in [half, len(x)-1-half] — are
	// computed eight per pass, eight independent add chains over one
	// window (a single chain an output waits on each add's latency), each
	// adding its terms in folded's order, so the result is bit-identical
	// to it; the edges and the remainder run folded.
	offs, taps, h0, half := rp.offs, rp.taps[:len(rp.offs)], rp.h[rp.half], rp.half
	lo := min((half+q-1)/q, outLen)
	hi := lo
	if last := len(x) - 1 - half; last >= lo*q {
		hi = last/q + 1
	}
	rp.folded(dst, x, 0, lo)
	m := lo
	for ; m+8 <= hi; m += 8 {
		c := m * q
		w := x[c-half : c+7*q+half+1]
		c0, c1, c2, c3 := half, half+q, half+2*q, half+3*q
		c4, c5, c6, c7 := half+4*q, half+5*q, half+6*q, half+7*q
		a0, a1, a2, a3 := h0*w[c0], h0*w[c1], h0*w[c2], h0*w[c3]
		a4, a5, a6, a7 := h0*w[c4], h0*w[c5], h0*w[c6], h0*w[c7]
		for j, d := range offs {
			t := taps[j]
			a0 += t * (w[c0-d] + w[c0+d])
			a1 += t * (w[c1-d] + w[c1+d])
			a2 += t * (w[c2-d] + w[c2+d])
			a3 += t * (w[c3-d] + w[c3+d])
			a4 += t * (w[c4-d] + w[c4+d])
			a5 += t * (w[c5-d] + w[c5+d])
			a6 += t * (w[c6-d] + w[c6+d])
			a7 += t * (w[c7-d] + w[c7+d])
		}
		dst[m], dst[m+1], dst[m+2], dst[m+3] = a0, a1, a2, a3
		dst[m+4], dst[m+5], dst[m+6], dst[m+7] = a4, a5, a6, a7
	}
	rp.folded(dst, x, m, outLen)
	return nil
}

// folded computes decimation outputs [lo, hi) one at a time in the folded
// order: h[half]·x[mq], then each nonzero offset d ascending adds
// h[half+d]·(x[mq−d] + x[mq+d]), a pair clipped to its in-range sample at
// the edges of x. It is the reference the eight-output pass reproduces bit
// for bit (TestResampleDecimateMatchesScalar).
func (rp *resamplePlan) folded(dst, x []float64, lo, hi int) {
	q, h0 := rp.q, rp.h[rp.half]
	for m := lo; m < hi; m++ {
		c := m * q
		acc := h0 * x[c]
		for j, d := range rp.offs {
			var s float64
			switch l, r := c-d, c+d; {
			case l >= 0 && r < len(x):
				s = x[l] + x[r]
			case l >= 0:
				s = x[l]
			case r < len(x):
				s = x[r]
			default:
				continue
			}
			acc += rp.taps[j] * s
		}
		dst[m] = acc
	}
}

// scalar computes outputs [lo, hi) of the polyphase resample one serial add
// chain at a time: y[m] = sum_k h[k] · xup[m*q + half - k], where xup[i] =
// x[i/p] when i % p == 0. The +half centers the filter, compensating group
// delay. Along one polyphase branch the source index decreases by exactly
// one per tap, so it is carried down the loop instead of divided out. The
// upsampling branch (p > 1) runs it; TestResampleIntoBitIdentical holds it
// to the direct form.
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
