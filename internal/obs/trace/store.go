package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// TraceData is one completed trace: the root's identity plus every
// recorded span (local and merged-remote alike), immutable once stored.
type TraceData struct {
	TraceID       ID         `json:"trace_id"`
	Root          string     `json:"root"`
	Process       string     `json:"process,omitempty"`
	StartUnixNano int64      `json:"start_unix_nano"`
	DurNS         int64      `json:"dur_ns"`
	Status        string     `json:"status,omitempty"`
	Spans         []SpanData `json:"spans"`
	DroppedSpans  int        `json:"dropped_spans,omitempty"`
	UnendedSpans  int        `json:"unended_spans,omitempty"` // open when the root ended
}

// Summary is the listing row /debug/traces serves: identity and size,
// without the span payload.
type Summary struct {
	TraceID       ID      `json:"trace_id"`
	Root          string  `json:"root"`
	Process       string  `json:"process,omitempty"`
	StartUnixNano int64   `json:"start_unix_nano"`
	DurMS         float64 `json:"duration_ms"`
	Status        string  `json:"status,omitempty"`
	Spans         int     `json:"spans"`
	DroppedSpans  int     `json:"dropped_spans,omitempty"`
	UnendedSpans  int     `json:"unended_spans,omitempty"`
}

// Summary compresses the trace to its listing row.
func (td *TraceData) Summary() Summary {
	return Summary{
		TraceID:       td.TraceID,
		Root:          td.Root,
		Process:       td.Process,
		StartUnixNano: td.StartUnixNano,
		DurMS:         float64(td.DurNS) / 1e6,
		Status:        td.Status,
		Spans:         len(td.Spans),
		DroppedSpans:  td.DroppedSpans,
		UnendedSpans:  td.UnendedSpans,
	}
}

// Orphans returns spans whose parent is neither 0 nor present in the
// trace — what a failed cross-process reassembly leaves behind. The root
// of a reassembled worker fragment parents under a coordinator dispatch
// span, so a healthy trace has none.
func (td *TraceData) Orphans() []SpanData {
	present := make(map[uint64]bool, len(td.Spans))
	for _, sd := range td.Spans {
		present[sd.SpanID] = true
	}
	var out []SpanData
	for _, sd := range td.Spans {
		if sd.Parent != 0 && !present[sd.Parent] {
			out = append(out, sd)
		}
	}
	return out
}

// StoreStats snapshots the store's accounting.
type StoreStats struct {
	Added   int64 `json:"added"`
	Evicted int64 `json:"evicted"`
	Recent  int   `json:"recent"`
	Slowest int   `json:"slowest"`
}

// Store holds completed traces in bounded memory: a ring buffer of the
// most recent plus the slowest-N by root duration, so a burst of fast
// requests cannot churn the interesting outliers out. No background
// goroutines; every operation is a short critical section.
type Store struct {
	mu      sync.Mutex
	ring    []*TraceData
	next    int
	filled  int
	slow    []*TraceData // sorted descending by DurNS
	maxSlow int
	added   int64
	evicted int64
}

// Default store capacities (NewStore args ≤ 0).
const (
	DefaultRecent  = 256
	DefaultSlowest = 32
)

// NewStore sizes a store: recent is the ring capacity, slowest the
// retained-outlier count.
func NewStore(recent, slowest int) *Store {
	if recent <= 0 {
		recent = DefaultRecent
	}
	if slowest <= 0 {
		slowest = DefaultSlowest
	}
	return &Store{ring: make([]*TraceData, recent), maxSlow: slowest}
}

// Add records one completed trace.
func (s *Store) Add(td *TraceData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.added++
	if s.filled < len(s.ring) {
		s.filled++
	} else {
		s.evicted++
	}
	s.ring[s.next] = td
	s.next = (s.next + 1) % len(s.ring)

	i := sort.Search(len(s.slow), func(i int) bool { return s.slow[i].DurNS < td.DurNS })
	if i < s.maxSlow {
		s.slow = append(s.slow, nil)
		copy(s.slow[i+1:], s.slow[i:])
		s.slow[i] = td
		if len(s.slow) > s.maxSlow {
			s.slow = s.slow[:s.maxSlow]
		}
	}
}

// Recent returns the ring's traces, newest first.
func (s *Store) Recent() []*TraceData {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*TraceData, 0, s.filled)
	for i := 1; i <= s.filled; i++ {
		out = append(out, s.ring[(s.next-i+len(s.ring))%len(s.ring)])
	}
	return out
}

// Slowest returns the retained outliers, slowest first.
func (s *Store) Slowest() []*TraceData {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*TraceData, len(s.slow))
	copy(out, s.slow)
	return out
}

// Get finds a trace by ID in the ring or the slowest list (nil if it has
// been evicted from both).
func (s *Store) Get(id ID) *TraceData {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 1; i <= s.filled; i++ {
		if td := s.ring[(s.next-i+len(s.ring))%len(s.ring)]; td.TraceID == id {
			return td
		}
	}
	for _, td := range s.slow {
		if td.TraceID == id {
			return td
		}
	}
	return nil
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Added: s.added, Evicted: s.evicted, Recent: s.filled, Slowest: len(s.slow)}
}

// WriteTree renders the trace as an indented span tree, children sorted
// by start time. Orphaned spans (parent missing — a reassembly gap) are
// printed at the top level marked "orphan". das_analyze -trace uses it;
// tests read it too.
func WriteTree(w io.Writer, td *TraceData) {
	fmt.Fprintf(w, "trace %s  %s  %.1fms  spans=%d", td.TraceID, td.Root, float64(td.DurNS)/1e6, len(td.Spans))
	if td.DroppedSpans > 0 {
		fmt.Fprintf(w, "  dropped=%d", td.DroppedSpans)
	}
	if td.UnendedSpans > 0 {
		fmt.Fprintf(w, "  unended=%d", td.UnendedSpans)
	}
	fmt.Fprintln(w)

	present := make(map[uint64]bool, len(td.Spans))
	children := make(map[uint64][]SpanData, len(td.Spans))
	for _, sd := range td.Spans {
		present[sd.SpanID] = true
	}
	var roots, orphans []SpanData
	for _, sd := range td.Spans {
		switch {
		case sd.Parent == 0:
			roots = append(roots, sd)
		case !present[sd.Parent]:
			orphans = append(orphans, sd)
		default:
			children[sd.Parent] = append(children[sd.Parent], sd)
		}
	}
	byStart := func(s []SpanData) {
		sort.Slice(s, func(i, j int) bool { return s[i].StartUnixNano < s[j].StartUnixNano })
	}
	byStart(roots)
	byStart(orphans)
	for _, cs := range children {
		byStart(cs)
	}
	var walk func(sd SpanData, depth int)
	walk = func(sd SpanData, depth int) {
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
		fmt.Fprintf(w, "%s  %.1fms", sd.Name, float64(sd.DurNS)/1e6)
		if sd.Process != "" && sd.Process != td.Process {
			fmt.Fprintf(w, "  @%s", sd.Process)
		}
		if sd.Status != "" {
			fmt.Fprintf(w, "  [%s]", sd.Status)
		}
		for _, a := range sd.Attrs {
			fmt.Fprintf(w, "  %s=%s", a.K, a.V)
		}
		fmt.Fprintln(w)
		for _, c := range children[sd.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, sd := range roots {
		walk(sd, 1)
	}
	for _, sd := range orphans {
		fmt.Fprintf(w, "  (orphan, parent %d missing)\n", sd.Parent)
		walk(sd, 1)
	}
}
