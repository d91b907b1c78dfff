package daslib

import (
	"sync"

	"dassa/internal/obs"
)

// Scratch is a reusable arena of float64 and complex128 work buffers for the
// destination-passing kernels (FFTInto, FiltFiltInto, XCorrInto, ...). One
// Scratch belongs to one goroutine at a time: the hybrid engine
// checks one out per worker thread, every kernel call borrows buffers from
// it and returns them, and after the first window of a run every borrow is
// served from memory the previous window already paid for — the per-channel
// inner loop allocates nothing.
//
// Ownership discipline (DESIGN.md §14): a buffer obtained from Complex/Float
// is valid until the matching Release* call or until the Scratch is returned
// to the pool, whichever comes first. Results that outlive the kernel call
// must be copied out of scratch-owned memory before release. A nil *Scratch
// is valid everywhere and simply allocates fresh buffers (Release* becomes a
// no-op): it is how a serial caller with no arena spells the same call.
type Scratch struct {
	c [][]complex128
	f [][]float64
}

// Scratch reuse telemetry: how often a borrow was served from the arena vs
// forced a fresh allocation, and how many bytes of garbage the arena saved.
// Exposed on the default registry so dassd's /metrics shows whether the hot
// path is actually running allocation-free.
var (
	scratchReuses = obs.Default().Counter("dassa_daslib_scratch_reuse_total",
		"Scratch buffer borrows served from a pooled buffer")
	scratchAllocs = obs.Default().Counter("dassa_daslib_scratch_alloc_total",
		"Scratch buffer borrows that had to allocate fresh memory")
	scratchBytesSaved = obs.Default().Counter("dassa_daslib_scratch_saved_bytes_total",
		"Bytes of allocation avoided by scratch buffer reuse")
)

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool recycles whole arenas across engine runs, so a run's threads
// start on the buffers the previous run already paid for.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch checks an arena out of the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns an arena to the pool. The caller must not use s, or any
// buffer borrowed from it, afterwards.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// Complex borrows a zeroed complex128 buffer of length n.
func (s *Scratch) Complex(n int) []complex128 {
	if s != nil {
		for i, b := range s.c {
			if cap(b) >= n {
				last := len(s.c) - 1
				s.c[i] = s.c[last]
				s.c[last] = nil
				s.c = s.c[:last]
				scratchReuses.Inc()
				scratchBytesSaved.Add(int64(n) * 16)
				b = b[:n]
				clear(b)
				return b
			}
		}
	}
	scratchAllocs.Inc()
	return make([]complex128, n)
}

// Float borrows a zeroed float64 buffer of length n.
func (s *Scratch) Float(n int) []float64 {
	if s != nil {
		for i, b := range s.f {
			if cap(b) >= n {
				last := len(s.f) - 1
				s.f[i] = s.f[last]
				s.f[last] = nil
				s.f = s.f[:last]
				scratchReuses.Inc()
				scratchBytesSaved.Add(int64(n) * 8)
				b = b[:n]
				clear(b)
				return b
			}
		}
	}
	scratchAllocs.Inc()
	return make([]float64, n)
}

// ReleaseComplex returns a buffer borrowed with Complex to the arena.
func (s *Scratch) ReleaseComplex(b []complex128) {
	if s != nil && cap(b) > 0 {
		s.c = append(s.c, b)
	}
}

// ReleaseFloat returns a buffer borrowed with Float to the arena.
func (s *Scratch) ReleaseFloat(b []float64) {
	if s != nil && cap(b) > 0 {
		s.f = append(s.f, b)
	}
}
