// Package omp provides an OpenMP-style fork-join threading engine: parallel
// for-loops over a static schedule, with per-thread partial results merged
// by prefix sums. It is the intra-node half of DASSA's hybrid execution
// model — the paper's Algorithm 1 (ApplyMT) maps onto Team.ForAppend.
package omp

import (
	"runtime"
	"sync"
)

// Team is a fixed-size group of worker threads, analogous to an OpenMP
// parallel region's thread team. Its loops use a static schedule: the
// iteration space is cut into one contiguous chunk per thread, like
// #pragma omp for schedule(static), which is what Algorithm 1 in the
// paper uses.
type Team struct {
	threads int
}

// NewTeam creates a team of n threads. n <= 0 means runtime.NumCPU().
func NewTeam(n int) *Team {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Team{threads: n}
}

// Threads returns the team size.
func (t *Team) Threads() int { return t.threads }

// staticRange returns thread h's contiguous [lo, hi) slice of n iterations.
func staticRange(n, threads, h int) (lo, hi int) {
	base := n / threads
	rem := n % threads
	lo = h*base + min(h, rem)
	hi = lo + base
	if h < rem {
		hi++
	}
	return lo, hi
}

// panicCollector re-raises the first worker panic on the caller's
// goroutine, so a panicking loop body behaves like it would in a serial
// loop instead of crashing the process from a worker goroutine.
type panicCollector struct {
	once sync.Once
	val  any
}

func (pc *panicCollector) guard(f func()) {
	defer func() {
		if p := recover(); p != nil {
			pc.once.Do(func() { pc.val = p })
		}
	}()
	f()
}

func (pc *panicCollector) rethrow() {
	if pc.val != nil {
		panic(pc.val)
	}
}

// For runs body(i) for every i in [0, n), split across the team in
// contiguous chunks. body must be safe to call concurrently from different
// threads for different i. For blocks until all iterations finish. If a
// body panics, the panic is re-raised on the calling goroutine.
func (t *Team) For(n int, body func(i int)) {
	t.ForThread(n, func(i, _ int) { body(i) })
}

// ForThread is For, additionally passing the worker thread id h in
// [0, Threads()) so bodies can use per-thread scratch space.
func (t *Team) ForThread(n int, body func(i, h int)) {
	if n <= 0 {
		return
	}
	threads := t.threads
	if threads > n {
		threads = n
	}
	var pc panicCollector
	var wg sync.WaitGroup
	wg.Add(threads)
	for h := 0; h < threads; h++ {
		go func(h int) {
			defer wg.Done()
			pc.guard(func() {
				lo, hi := staticRange(n, threads, h)
				for i := lo; i < hi; i++ {
					body(i, h)
				}
			})
		}(h)
	}
	wg.Wait()
	pc.rethrow()
}

// ForAppend is Algorithm 1 (ApplyMT) from the DASSA paper: each thread runs
// body over its share of [0, n) iterations, appending any number of results
// to a private per-thread vector (no locks on the hot path); sizes are then
// prefix-summed and the private vectors are copied into a single shared
// output in parallel, preserving iteration order.
func ForAppend[T any](t *Team, n int, body func(i int, out *[]T)) []T {
	if n <= 0 {
		return nil
	}
	threads := t.threads
	if threads > n {
		threads = n
	}
	parts := make([][]T, threads)
	var pc panicCollector
	var wg sync.WaitGroup
	wg.Add(threads)
	for h := 0; h < threads; h++ {
		go func(h int) {
			defer wg.Done()
			pc.guard(func() {
				lo, hi := staticRange(n, threads, h)
				local := make([]T, 0, hi-lo)
				for i := lo; i < hi; i++ {
					body(i, &local)
				}
				parts[h] = local
			})
		}(h)
	}
	wg.Wait()
	pc.rethrow()
	// Prefix-sum of per-thread sizes (the "single" section in Algorithm 1).
	offsets := make([]int, threads+1)
	for h := 0; h < threads; h++ {
		offsets[h+1] = offsets[h] + len(parts[h])
	}
	out := make([]T, offsets[threads])
	// Parallel copy of each private vector into its slot.
	wg.Add(threads)
	for h := 0; h < threads; h++ {
		go func(h int) {
			defer wg.Done()
			copy(out[offsets[h]:offsets[h+1]], parts[h])
		}(h)
	}
	wg.Wait()
	return out
}

// ForAppendLocked is the naive alternative to ForAppend used by the merge
// ablation bench: a single shared output guarded by a mutex. Results are in
// nondeterministic order.
func ForAppendLocked[T any](t *Team, n int, body func(i int, out *[]T)) []T {
	var mu sync.Mutex
	var out []T
	t.For(n, func(i int) {
		var local []T
		body(i, &local)
		if len(local) == 0 {
			return
		}
		mu.Lock()
		out = append(out, local...)
		mu.Unlock()
	})
	return out
}
