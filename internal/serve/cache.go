// Package serve is DASSA's always-on service layer: a polling ingester that
// keeps a live catalog over a watched directory, a sharded block cache that
// makes hot minutes cost one disk read no matter how many queries want
// them, and an HTTP JSON API (search, read, detect, status) with admission
// control so overload degrades into 429s instead of collapse. cmd/dassd is
// the binary; everything underneath reuses the dass/haee/detect engines.
package serve

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"dassa/internal/dasf"
	"dassa/internal/dass"
)

// BlockKey identifies one cached hyperslab of one physical file.
type BlockKey struct {
	Path       string
	ChLo, ChHi int
	TLo, THi   int
}

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

const cacheShards = 8

// BlockCache is a sharded LRU over (file, hyperslab) blocks with
// singleflight de-duplication: concurrent misses on the same key run the
// loader once and share the result. Cached arrays are shared between
// callers and must be treated as immutable.
type BlockCache struct {
	shards                             [cacheShards]cacheShard
	hits, misses, coalesced, evictions atomic.Int64
	// waiting gauges callers currently blocked on an in-flight load.
	waiting atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recent
	entries  map[BlockKey]*list.Element
	inflight map[BlockKey]*flight
}

type cacheEntry struct {
	key   BlockKey
	data  *dasf.Array2D
	bytes int64
}

// flight is one in-progress load other callers can wait on.
type flight struct {
	done chan struct{}
	data *dasf.Array2D
	err  error
}

// NewBlockCache builds a cache bounded to maxBytes of array data (spread
// evenly across shards). maxBytes <= 0 disables caching: every Get runs the
// loader (still singleflighted).
func NewBlockCache(maxBytes int64) *BlockCache {
	c := &BlockCache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			maxBytes: maxBytes / cacheShards,
			ll:       list.New(),
			entries:  map[BlockKey]*list.Element{},
			inflight: map[BlockKey]*flight{},
		}
	}
	return c
}

func (c *BlockCache) shard(k BlockKey) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(k.Path))
	// Mix the hyperslab so different windows of one file spread out.
	var b [8]byte
	for i, v := range [4]int{k.ChLo, k.ChHi, k.TLo, k.THi} {
		b[2*i] = byte(v)
		b[2*i+1] = byte(v >> 8)
	}
	h.Write(b[:])
	return &c.shards[h.Sum32()%cacheShards]
}

// Get returns the block for key, loading it at most once across concurrent
// callers. hit reports whether the data came from cache (or an in-flight
// load) rather than this caller's own loader run. The returned IOStats are
// zero on a hit — the physical read already happened.
func (c *BlockCache) Get(key BlockKey, load func() (*dasf.Array2D, dasf.IOStats, error)) (*dasf.Array2D, dasf.IOStats, bool, error) {
	return c.GetContext(context.Background(), key, load)
}

// GetContext is Get bound to the caller's context. A waiter piggybacking on
// an in-flight load stops waiting when its own context dies. And because the
// in-flight loader runs under *its* requester's context, a flight that
// resolves with a cancellation error says nothing about this caller's block
// — the waiter re-runs the load under its own (still live) context instead
// of inheriting a stranger's cancellation.
func (c *BlockCache) GetContext(ctx context.Context, key BlockKey, load func() (*dasf.Array2D, dasf.IOStats, error)) (*dasf.Array2D, dasf.IOStats, bool, error) {
	s := c.shard(key)
	for {
		if err := ctx.Err(); err != nil {
			return nil, dasf.IOStats{}, false, err
		}
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			s.ll.MoveToFront(el)
			data := el.Value.(*cacheEntry).data
			s.mu.Unlock()
			c.hits.Add(1)
			return data, dasf.IOStats{}, true, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
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
		s.inflight[key] = fl
		s.mu.Unlock()

		c.misses.Add(1)
		data, st, err := load()
		fl.data, fl.err = data, err
		close(fl.done)

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			c.insertLocked(s, key, data)
		}
		s.mu.Unlock()
		return data, st, false, err
	}
}

func (c *BlockCache) insertLocked(s *cacheShard, key BlockKey, data *dasf.Array2D) {
	nb := int64(len(data.Data)) * 8
	if s.maxBytes <= 0 || nb > s.maxBytes {
		return // cache disabled, or the block alone exceeds the shard budget
	}
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		return
	}
	el := s.ll.PushFront(&cacheEntry{key: key, data: data, bytes: nb})
	s.entries[key] = el
	s.bytes += nb
	for s.bytes > s.maxBytes {
		tail := s.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		s.ll.Remove(tail)
		delete(s.entries, ent.key)
		s.bytes -= ent.bytes
		c.evictions.Add(1)
	}
}

// InvalidatePath drops every cached block of one physical file — called
// when the ingester sees the file change, disappear, or age out of the
// retention window.
func (c *BlockCache) InvalidatePath(path string) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if key.Path == path {
				s.bytes -= el.Value.(*cacheEntry).bytes
				s.ll.Remove(el)
				delete(s.entries, key)
			}
		}
		s.mu.Unlock()
	}
}

// Stats snapshots the counters.
func (c *BlockCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Waiting:   c.waiting.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Capacity += s.maxBytes
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}

// SlabReader adapts the cache to the dass read hook: member hyperslab reads
// route through Get, so hot blocks cost one disk read however many queries
// want them.
func (c *BlockCache) SlabReader() dass.SlabReaderFunc {
	return func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		key := BlockKey{Path: path, ChLo: chLo, ChHi: chHi, TLo: tLo, THi: tHi}
		data, st, _, err := c.GetContext(ctx, key, func() (*dasf.Array2D, dasf.IOStats, error) {
			r, err := dasf.OpenContext(ctx, path)
			if err != nil {
				return nil, dasf.IOStats{}, err
			}
			defer r.Close()
			a, err := r.ReadSlab(chLo, chHi, tLo, tHi)
			return a, r.Stats(), err
		})
		return data, st, err
	}
}
