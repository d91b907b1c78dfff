package daslib

import "sync"

// memo is a table of immutable values built once per key, the one shape of
// every daslib plan table (FFT plans, twiddles, resample FIRs).
// A plain RWMutex-guarded map, not sync.Map, keeps the hit path free of
// interface boxing, so a lookup allocates nothing. The zero value is ready.
type memo[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// get returns k's value, calling build on a miss. build runs outside the
// lock, so it may itself consult a memo; racing misses may each build, and
// the first value stored is the one every caller gets.
func (t *memo[K, V]) get(k K, build func(K) V) V {
	t.mu.RLock()
	v, ok := t.m[k]
	t.mu.RUnlock()
	if ok {
		return v
	}
	v = build(k)
	t.mu.Lock()
	if have, ok := t.m[k]; ok {
		v = have
	} else {
		if t.m == nil {
			t.m = make(map[K]V)
		}
		t.m[k] = v
	}
	t.mu.Unlock()
	return v
}
