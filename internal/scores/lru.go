package scores

import (
	"container/list"
	"sync"

	"dassa/internal/dasf"
)

// LRUStats is a point-in-time snapshot of an LRU's counters.
type LRUStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
	Entries   int64 `json:"entries"`
}

// LRU holds tiles, bounded by the bytes of their cells, least recently used
// out first. It drops nothing else: a key names its members' stamps, so a
// tile of a rewritten file is never asked for again and ages out. Stored
// arrays are shared from then on and must not be modified.
type LRU struct {
	mu       sync.Mutex
	maxBytes int64
	ll       *list.List // front = most recent
	entries  map[string]*list.Element
	st       LRUStats
}

type lruEntry struct {
	key  string
	data *dasf.Array2D
}

// NewLRU builds a store of at most maxBytes of cells.
func NewLRU(maxBytes int64) *LRU {
	return &LRU{maxBytes: maxBytes, ll: list.New(), entries: map[string]*list.Element{}}
}

func tileBytes(a *dasf.Array2D) int64 { return int64(len(a.Data)) * 8 }

// Lookup returns the tile stored under k, counted as a hit or a miss.
func (c *LRU) Lookup(k string) (*dasf.Array2D, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.st.Misses++
		return nil, false
	}
	c.st.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).data, true
}

// Store keeps a under k, evicting the least recently used tiles past the
// budget. A tile larger than an eighth of the budget is not kept: stored,
// one map's tiles would evict every other map's (stride-1 STA/LTA's
// interior tiles over 1 000-sample files are such tiles).
func (c *LRU) Store(k string, a *dasf.Array2D) {
	n := tileBytes(a)
	if n > c.maxBytes/8 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok { // a concurrent map stored the same cells
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&lruEntry{key: k, data: a})
	c.st.Bytes += n
	for c.st.Bytes > c.maxBytes {
		el := c.ll.Back()
		e := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.st.Bytes -= tileBytes(e.data)
		c.st.Evictions++
	}
}

// Stats snapshots the counters.
func (c *LRU) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = int64(len(c.entries))
	return st
}
