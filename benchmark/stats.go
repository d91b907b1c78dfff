package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b with 0 for an empty base, so a layer that did no work on a
// workload reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure times fn the way every layer microbenchmark here does: one
// warm-up call, then batches of calls until budget is spent, and the median
// batch's ns per call. Batches are sized so one lasts about a tenth of the
// budget, which gives ~10 samples to take the median over however fast fn
// is. Medians, not means: one noisy-neighbour stall must not move a number.
func measure(budget time.Duration, fn func()) (nsPerCall float64) {
	fn()
	t0 := time.Now()
	fn()
	one := max(time.Since(t0), time.Nanosecond)
	per := max(int(budget/10/one), 1)
	var samples []float64
	for start := time.Now(); time.Since(start) < budget || len(samples) < 3; {
		t0 = time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return median(samples)
}

// mallocsPerCall counts heap allocations per call of fn after a warm-up —
// an exact count, not a timing.
func mallocsPerCall(reps int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// mbPerSec converts bytes moved in ns nanoseconds to MB/s (1e6 bytes).
func mbPerSec(bytes, ns float64) float64 { return ratio(bytes*1e3, ns) }
