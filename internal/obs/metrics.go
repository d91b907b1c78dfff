// Package obs is DASSA's unified observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) exposed via
// expvar and the Prometheus text format, the per-rank phase recorder that
// measures the paper's read/exchange/compute/write breakdown (Figs. 8–10),
// and a log/slog-based structured logger shared by the CLIs
// and the dassd daemon. Everything here is stdlib-only so any package —
// including the lowest storage layer — can instrument itself without
// import cycles or new dependencies.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value dimension attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, cumulative only at exposition
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative per-bound counts (ending with +Inf ≡ Count).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// LatencyBuckets are the default request/phase duration buckets (seconds):
// 1ms to ~65s in powers of two.
func LatencyBuckets() []float64 {
	return ExpBuckets(0.001, 2, 17)
}

// SizeBuckets are the default byte-size buckets: 1 KiB to 4 GiB.
func SizeBuckets() []float64 {
	return ExpBuckets(1024, 4, 12)
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad bucket spec start=%g factor=%g n=%d", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// kind is the exposition type of a metric family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (name, labels) time series.
type series struct {
	name   string
	labels string // rendered {k="v",...} body, "" when unlabeled
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	// fn, when non-nil, is a live value read at exposition time
	// (CounterFunc/GaugeFunc). Guarded by the registry lock.
	fn func() float64
}

// family groups the series sharing one metric name.
type family struct {
	name  string
	help  string
	kind  kind
	count int // live series in this family, overflow included
	// overflowed counts registrations collapsed into the overflow series —
	// the runtime evidence that some label value is unbounded. Exposed as
	// dassa_metrics_overflow_total{family=...} so a cap being hit is itself
	// observable instead of silently flattening one family's resolution.
	overflowed int64
}

// Registry holds metric families and their series. All methods are safe for
// concurrent use; registration is idempotent — asking for an existing
// (name, labels) series returns the same collector, so package-level
// instrumentation and per-server instrumentation can share one registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	series   map[string]*series
	limit    int // max series per family; excess collapses into overflow
}

// DefaultSeriesLimit is the per-family series cap: far above any bounded
// label set the code registers (routes, phases, outcomes), far below what
// an unbounded label value could mint, including values no static check
// could see.
const DefaultSeriesLimit = 64

// overflowLabels marks the single series that absorbs registrations past
// the family's cap.
var overflowLabels = []Label{{Key: "overflow", Value: "true"}}

// NewRegistry returns an empty registry with the default series limit.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		series:   map[string]*series{},
		limit:    DefaultSeriesLimit,
	}
}

// SetSeriesLimit changes the per-family series cap (n < 1 resets to the
// default). Existing series are kept even if they exceed the new cap;
// only future registrations are bounded by it.
func (r *Registry) SetSeriesLimit(n int) {
	if n < 1 {
		n = DefaultSeriesLimit
	}
	r.mu.Lock()
	r.limit = n
	r.mu.Unlock()
}

var std = NewRegistry()

// Default returns the process-wide registry the storage and engine layers
// instrument themselves into. dassd exposes it at /metrics.
func Default() *Registry { return std }

// renderLabels renders sorted k="v" pairs; label values are escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// register finds or creates the series; the family's kind must match.
// A family at its series limit hands all further label sets the shared
// overflow series instead of minting new ones, so an unbounded label
// value degrades one family's resolution rather than growing the
// registry (and every scrape of it) without bound.
func (r *Registry) register(name, help string, k kind, labels []Label) *series {
	lb := renderLabels(labels)
	key := seriesKey(name, lb)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, k, f.kind))
		}
	} else {
		f = &family{name: name, help: help, kind: k}
		r.families[name] = f
	}
	if s, ok := r.series[key]; ok {
		return s
	}
	if f.count >= r.limit {
		f.overflowed++
		lb = renderLabels(overflowLabels)
		key = seriesKey(name, lb)
		if s, ok := r.series[key]; ok {
			return s
		}
	}
	s := &series{name: name, labels: lb}
	r.series[key] = s
	f.count++
	return s
}

// Counter returns the counter series (name, labels), creating it if needed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil {
		s.ctr = &Counter{}
		s.fn = nil
	}
	return s.ctr
}

// Gauge returns the gauge series (name, labels), creating it if needed.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
		s.fn = nil
	}
	return s.gauge
}

// CounterFunc registers a counter whose value is read live from fn at
// exposition time — for components that already keep their own atomic
// counters (the block cache, the admission gate). Re-registering replaces
// fn, so a restarted component takes over its series.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
	s.ctr = nil
}

// GaugeFunc registers a live-read gauge (see CounterFunc).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
	s.gauge = nil
}

// Histogram returns the histogram series (name, labels) with the given
// bucket upper bounds, creating it if needed. An existing series keeps its
// original buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.hist = &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	}
	return s.hist
}

// OverflowCounts reports, per family name, how many registrations were
// collapsed into that family's overflow series. An empty map means every
// family stayed under the cap — the healthy state.
func (r *Registry) OverflowCounts() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := map[string]int64{}
	for name, f := range r.families {
		if f.overflowed > 0 {
			out[name] = f.overflowed
		}
	}
	return out
}

// value reads a scalar series (counter or gauge, direct or func-backed).
func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	default:
		return 0
	}
}
