// Package serve is DASSA's always-on service layer: a polling ingester that
// keeps a live catalog over a watched directory, a member-file cache that
// makes hot minutes cost one disk read no matter how many queries want
// them, and an HTTP JSON API (search, read, detect, status) with admission
// control so overload degrades into 429s instead of collapse. cmd/dassd is
// the binary; everything underneath reuses the dass/haee/detect engines.
package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"dassa/internal/dasf"
	"dassa/internal/dass"
)

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"` // waiters that piggybacked on an in-flight read
	Evictions int64 `json:"evictions"`
	Waiting   int64 `json:"waiting"` // callers currently blocked on an in-flight load
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
	Entries   int64 `json:"entries"`
}

// BlockCache is an LRU over decoded member files keyed by path, with
// singleflight de-duplication: concurrent misses on one member run the
// loader once and share the result. The paper's I/O unit is the file, so a
// member is resident once, whichever rectangles of it are asked for.
// Cached arrays are shared between callers and must be treated as
// immutable.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recent
	entries  map[string]*list.Element
	// inflight holds the loads under way. InvalidatePath takes a load out,
	// so that its result reaches its waiters but not the cache.
	inflight map[string]*flight

	hits, misses, coalesced, evictions atomic.Int64
	// waiting gauges callers currently blocked on an in-flight load.
	waiting atomic.Int64
}

type cacheEntry struct {
	path  string
	data  *dasf.Array2D
	bytes int64
}

// flight is one in-progress load other callers can wait on.
type flight struct {
	done chan struct{}
	data *dasf.Array2D
	err  error
}

// NewBlockCache builds a cache bounded to maxBytes of decoded member data.
// A member larger than maxBytes is never kept, so maxBytes <= 0 disables
// caching: every read goes to disk (loads are still singleflighted).
func NewBlockCache(maxBytes int64) *BlockCache {
	return &BlockCache{
		capacity: maxBytes,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// get returns the member at path, loading it at most once across
// concurrent callers. hit reports whether the data came from cache (or an
// in-flight load) rather than this caller's own loader run; the returned
// IOStats are zero on a hit — the physical read already happened. A load
// that returns no array and no error is shared with its waiters but not
// kept.
//
// A waiter piggybacking on an in-flight load stops waiting when its own
// context dies. And because the in-flight loader runs under *its*
// requester's context, a flight that resolves with a cancellation error
// says nothing about this caller's member — the waiter re-runs the load
// under its own (still live) context instead of inheriting a stranger's
// cancellation.
func (c *BlockCache) get(ctx context.Context, path string, load func() (*dasf.Array2D, dasf.IOStats, error)) (*dasf.Array2D, dasf.IOStats, bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, dasf.IOStats{}, false, err
		}
		c.mu.Lock()
		if el, ok := c.entries[path]; ok {
			c.ll.MoveToFront(el)
			data := el.Value.(*cacheEntry).data
			c.mu.Unlock()
			c.hits.Add(1)
			return data, dasf.IOStats{}, true, nil
		}
		if fl, ok := c.inflight[path]; ok {
			c.mu.Unlock()
			c.waiting.Add(1)
			select {
			case <-fl.done:
				c.waiting.Add(-1)
				if fl.err != nil && dass.IsCancellation(fl.err) {
					// The loader's request was cancelled, not ours: retry.
					continue
				}
				c.coalesced.Add(1)
				return fl.data, dasf.IOStats{}, true, fl.err
			case <-ctx.Done():
				c.waiting.Add(-1)
				return nil, dasf.IOStats{}, false, ctx.Err()
			}
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[path] = fl
		c.mu.Unlock()

		c.misses.Add(1)
		data, st, err := load()
		fl.data, fl.err = data, err
		close(fl.done)

		c.mu.Lock()
		if c.inflight[path] == fl { // else invalidated while loading
			delete(c.inflight, path)
			if err == nil && data != nil {
				c.insertLocked(path, data)
			}
		}
		c.mu.Unlock()
		return data, st, false, err
	}
}

// insertLocked keeps a freshly loaded member, evicting from the cold end
// until the budget holds. A flight is the only loader of its path and no
// entry exists while it runs, so path is not resident yet; the loader
// returns no member larger than the budget.
func (c *BlockCache) insertLocked(path string, data *dasf.Array2D) {
	nb := int64(len(data.Data)) * 8
	c.entries[path] = c.ll.PushFront(&cacheEntry{path: path, data: data, bytes: nb})
	c.bytes += nb
	for c.bytes > c.capacity {
		c.removeLocked(c.ll.Back())
		c.evictions.Add(1)
	}
}

func (c *BlockCache) removeLocked(el *list.Element) {
	ent := c.ll.Remove(el).(*cacheEntry)
	delete(c.entries, ent.path)
	c.bytes -= ent.bytes
}

// InvalidatePath drops one physical file from the cache, and from any load
// of it in flight — called when the ingester sees the file change,
// disappear, or age out of the retention window.
func (c *BlockCache) InvalidatePath(path string) {
	c.mu.Lock()
	if el, ok := c.entries[path]; ok {
		c.removeLocked(el)
	}
	delete(c.inflight, path)
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, int64(len(c.entries))
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Waiting:   c.waiting.Load(),
		Bytes:     bytes,
		Capacity:  c.capacity,
		Entries:   entries,
	}
}

// SlabReader adapts the cache to the dass read hook: a member that fits the
// budget is read whole once, and every hyperslab of it is cut from the
// cached copy. A member too large to keep is read as the requested
// hyperslab, uncached.
func (c *BlockCache) SlabReader() dass.SlabReaderFunc { return c.slabReader(dasf.OpenContext) }

func (c *BlockCache) slabReader(open func(context.Context, string) (*dasf.Reader, error)) dass.SlabReaderFunc {
	return func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		var part *dasf.Array2D // the hyperslab, when this caller's load could not keep the member
		var partErr error
		m, st, hit, err := c.get(ctx, path, func() (*dasf.Array2D, dasf.IOStats, error) {
			r, err := open(ctx, path)
			if err != nil {
				return nil, dasf.IOStats{}, err
			}
			defer r.Close()
			if info := r.Info(); int64(info.NumChannels)*int64(info.NumSamples)*8 > c.capacity {
				part, partErr = r.ReadSlab(chLo, chHi, tLo, tHi)
				return nil, r.Stats(), nil
			}
			m, err := r.ReadAll()
			return m, r.Stats(), err
		})
		switch {
		case err != nil:
			return nil, st, err
		case m == nil && !hit:
			return part, st, partErr
		case m != nil && chLo >= 0 && chLo < chHi && chHi <= m.Channels && tLo >= 0 && tLo < tHi && tHi <= m.Samples:
			return cut(m, chLo, chHi, tLo, tHi), st, nil
		}
		// A waiter on a member too large to keep, or a hyperslab outside the
		// member (the reader reports the bounds): read the hyperslab alone.
		r, err := open(ctx, path)
		if err != nil {
			return nil, dasf.IOStats{}, err
		}
		defer r.Close()
		part, err = r.ReadSlab(chLo, chHi, tLo, tHi)
		return part, r.Stats(), err
	}
}

// cut returns the hyperslab [chLo,chHi)×[tLo,tHi) of a cached member. A
// full-length channel band shares the member's rows; a time cut is copied.
func cut(m *dasf.Array2D, chLo, chHi, tLo, tHi int) *dasf.Array2D {
	if tLo == 0 && tHi == m.Samples {
		lo, hi := chLo*m.Samples, chHi*m.Samples
		return &dasf.Array2D{Channels: chHi - chLo, Samples: m.Samples, Data: m.Data[lo:hi:hi]}
	}
	part := dasf.NewArray2D(chHi-chLo, tHi-tLo)
	for c := range part.Channels {
		copy(part.Row(c), m.Row(chLo + c)[tLo:tHi])
	}
	return part
}
