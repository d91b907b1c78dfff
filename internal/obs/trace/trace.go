// Package trace is the request-scoped tracing layer that sits beside the
// obs metrics: one trace per request, hierarchical wall-clock spans
// carried through context.Context, recorded into a bounded in-memory
// Store. It is built for the cluster's cross-process shape — dassd mints
// the trace ID, the coordinator stamps it into shard requests, workers
// record their fragment locally and ship the spans home, and the
// coordinator grafts them back in (Merge) so /debug/traces shows one
// tree per request.
//
// The disabled path is free: a context that carries no trace makes Start
// return (ctx, nil) without allocating, and every method on a nil *Span
// is a no-op. Code annotates unconditionally; only traced requests pay.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the HTTP header that carries a trace ID across the daemon's
// edge: dassd adopts a valid inbound value and echoes the chosen ID on
// every response.
const Header = "X-Dassa-Trace"

// Bounds. A trace is a debugging artifact, not a log: spans and attrs cap
// out rather than grow with the request.
const (
	// MaxSpans bounds the spans one trace retains (root included).
	MaxSpans = 512
	// MaxAttrs bounds the key/value annotations on one span.
	MaxAttrs = 16
	// maxAttrLen truncates oversized attr values (error strings, paths).
	maxAttrLen = 256
	// unendedAttr carries a fragment's unended-span count on its root.
	unendedAttr = "unended_spans"
)

// ID is a request-scoped trace identifier: hex characters (dashes
// allowed, so external correlation IDs pass through).
type ID string

// NewID mints a 128-bit random trace ID.
func NewID() ID {
	var b [16]byte
	_, _ = cryptorand.Read(b[:])
	return ID(hex.EncodeToString(b[:]))
}

// ParseID validates an externally supplied trace ID: 8–64 characters of
// [0-9a-fA-F-]. Anything else is rejected so a hostile header cannot
// smuggle arbitrary bytes into logs and JSON.
func ParseID(s string) (ID, bool) {
	if len(s) < 8 || len(s) > 64 {
		return "", false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F', c == '-':
		default:
			return "", false
		}
	}
	return ID(s), true
}

// OrNew adopts a valid inbound ID or mints a fresh one.
func OrNew(s string) ID {
	if id, ok := ParseID(s); ok {
		return id
	}
	return NewID()
}

// Attr is one bounded key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanData is the immutable record of one completed span. Span IDs are
// random 64-bit values (unique within a trace across processes without
// coordination); they serialize as strings so JSON consumers never round
// them through float64.
type SpanData struct {
	SpanID        uint64 `json:"span_id,string"`
	Parent        uint64 `json:"parent,string,omitempty"`
	Name          string `json:"name"`
	Process       string `json:"process,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurNS         int64  `json:"dur_ns"`
	Status        string `json:"status,omitempty"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// newSpanID returns a nonzero random span ID. Randomness (not a counter)
// keeps worker-minted IDs collision-free against coordinator-minted ones
// in the same reassembled trace.
func newSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// Span is one live span. A Span is owned by the goroutine that started
// it until End; a nil *Span (tracing disabled) no-ops every method.
type Span struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	status string
	ended  bool
}

// ID returns the span's identifier (0 on a nil span) — what a remote
// fragment parents under.
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// SetAttr annotates the span, bounded by MaxAttrs / maxAttrLen.
func (sp *Span) SetAttr(k, v string) {
	if sp == nil || sp.ended || len(sp.attrs) >= MaxAttrs {
		return
	}
	if len(v) > maxAttrLen {
		v = v[:maxAttrLen]
	}
	sp.attrs = append(sp.attrs, Attr{K: k, V: v})
}

// SetAttrInt annotates the span with an integer value. The nil check
// runs before the formatting, so disabled-path callers pay nothing.
func (sp *Span) SetAttrInt(k string, v int64) {
	if sp == nil {
		return
	}
	sp.SetAttr(k, strconv.FormatInt(v, 10))
}

// SetStatus overrides the span's status ("" is OK; the conventional
// values are "error", "cancelled", and "degraded").
func (sp *Span) SetStatus(status string) {
	if sp == nil || sp.ended {
		return
	}
	sp.status = status
}

// End records the span into its trace. Idempotent; ending the root span
// completes the trace and hands it to the store. A fragment root (no
// store) carries the spans still open under it as an attribute.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	if n := sp.t.open.Add(-1); n > 0 && sp == sp.t.root && sp.t.store == nil {
		sp.SetAttrInt(unendedAttr, n)
	}
	sp.ended = true
	sp.t.record(SpanData{
		SpanID:        sp.id,
		Parent:        sp.parent,
		Name:          sp.name,
		Process:       sp.t.proc,
		StartUnixNano: sp.start.UnixNano(),
		DurNS:         int64(time.Since(sp.start)),
		Status:        sp.status,
		Attrs:         sp.attrs,
	}, sp == sp.t.root)
}

// EndErr ends the span with a status derived from err: nil keeps the
// current status, a cancellation becomes "cancelled", anything else
// "error" with the message attached.
func (sp *Span) EndErr(err error) {
	if sp == nil {
		return
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			sp.SetStatus("cancelled")
		} else {
			sp.SetStatus("error")
			sp.SetAttr("error", err.Error())
		}
	}
	sp.End()
}

// Trace collects one request's spans. Safe for concurrent span Ends and
// Merges from many goroutines.
type Trace struct {
	id    ID
	proc  string
	store *Store

	open atomic.Int64 // spans started and not yet ended, root included

	mu      sync.Mutex
	spans   []SpanData
	dropped int
	unended int // merged fragments' unended spans
	done    bool
	root    *Span
}

func (t *Trace) newSpan(name string, parent uint64) *Span {
	t.open.Add(1)
	return &Span{t: t, id: newSpanID(), parent: parent, name: name, start: time.Now()}
}

// record appends one completed span; the root's completion snapshots the
// trace into the store. Spans landing after the root ended are dropped
// (counted), never appended — the exported trace is immutable.
func (t *Trace) record(sd SpanData, isRoot bool) {
	var td *TraceData
	t.mu.Lock()
	switch {
	case t.done:
		t.dropped++
	case len(t.spans) >= MaxSpans-1 && !isRoot: // reserve the root's slot
		t.dropped++
	default:
		t.spans = append(t.spans, sd)
	}
	if isRoot && !t.done {
		t.done = true
		td = &TraceData{
			TraceID:       t.id,
			Root:          sd.Name,
			Process:       t.proc,
			StartUnixNano: sd.StartUnixNano,
			DurNS:         sd.DurNS,
			Status:        sd.Status,
			Spans:         t.spans,
			DroppedSpans:  t.dropped,
			UnendedSpans:  int(t.open.Load()) + t.unended,
		}
	}
	t.mu.Unlock()
	if td != nil && t.store != nil {
		t.store.Add(td)
	}
}

// merge grafts remotely recorded spans in, bounded like local ones.
func (t *Trace) merge(spans []SpanData) {
	t.mu.Lock()
	for _, sd := range spans {
		if t.done || len(t.spans) >= MaxSpans {
			t.dropped++
			continue
		}
		if len(sd.Attrs) > MaxAttrs {
			sd.Attrs = sd.Attrs[:MaxAttrs]
		}
		for _, a := range sd.Attrs {
			if n, _ := strconv.Atoi(a.V); a.K == unendedAttr && n > 0 {
				t.unended += n
			}
		}
		t.spans = append(t.spans, sd)
	}
	t.mu.Unlock()
}

// ctxKey is the zero-size context key; a Value lookup with it does not
// allocate, which is what keeps the disabled path free.
type ctxKey struct{}

// ref binds a trace and the current span into a context.
type ref struct {
	t  *Trace
	sp *Span
}

func fromCtx(ctx context.Context) *ref {
	r, _ := ctx.Value(ctxKey{}).(*ref)
	return r
}

// New starts a trace: the given ID (or a fresh one when empty) and a root
// span, both bound into the returned context. Ending the root span
// completes the trace into store. proc names this process in the spans.
func New(ctx context.Context, store *Store, proc string, id ID, rootName string) (context.Context, *Span) {
	if id == "" {
		id = NewID()
	}
	t := &Trace{id: id, proc: proc, store: store}
	sp := t.newSpan(rootName, 0)
	t.root = sp
	return context.WithValue(ctx, ctxKey{}, &ref{t: t, sp: sp}), sp
}

// Start begins a child of the context's current span. Without a trace in
// ctx it returns (ctx, nil) with zero allocations.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	cur := fromCtx(ctx)
	if cur == nil {
		return ctx, nil
	}
	sp := cur.t.newSpan(name, cur.sp.id)
	return context.WithValue(ctx, ctxKey{}, &ref{t: cur.t, sp: sp}), sp
}

// Add records an already-measured interval as a completed child span of
// the context's current span — the post-hoc path for phase timings that
// are measured anyway (haee's read/exchange/compute/write). No-op (and,
// called with no attrs, allocation-free) without a trace.
func Add(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	cur := fromCtx(ctx)
	if cur == nil {
		return
	}
	if len(attrs) > MaxAttrs {
		attrs = attrs[:MaxAttrs]
	}
	cur.t.record(SpanData{
		SpanID:        newSpanID(),
		Parent:        cur.sp.id,
		Name:          name,
		Process:       cur.t.proc,
		StartUnixNano: start.UnixNano(),
		DurNS:         int64(d),
		Attrs:         attrs,
	}, false)
}

// IDFrom returns the trace ID the context carries ("" without one), for
// log correlation. Allocation-free either way.
func IDFrom(ctx context.Context) ID {
	if r := fromCtx(ctx); r != nil {
		return r.t.id
	}
	return ""
}

// Current returns the context's current live span (nil without a trace)
// so a handler can annotate the span an outer layer opened. The span must
// not have been ended by that layer yet.
func Current(ctx context.Context) *Span {
	if r := fromCtx(ctx); r != nil {
		return r.sp
	}
	return nil
}

// SpanFrom returns the current span's ID (0 without a trace) — what a
// dispatching coordinator writes into wire.ShardRequest.ParentSpan.
func SpanFrom(ctx context.Context) uint64 {
	if r := fromCtx(ctx); r != nil {
		return r.sp.id
	}
	return 0
}

// Merge grafts remotely recorded span fragments (a worker's shipped
// spans) into the trace ctx carries. No-op without a trace.
func Merge(ctx context.Context, spans []SpanData) {
	if len(spans) == 0 {
		return
	}
	if r := fromCtx(ctx); r != nil {
		r.t.merge(spans)
	}
}

// Remote collects the local fragment of a trace owned by another process:
// spans parent under the owner's dispatch span and are harvested with
// Spans (after the fragment root ends) instead of landing in a store.
type Remote struct {
	t *Trace
}

// StartRemote opens a trace fragment for remote reassembly: a root span
// named rootName parented under parentSpan, bound into the returned
// context. End the returned span, then ship Spans home.
func StartRemote(ctx context.Context, id ID, proc string, parentSpan uint64, rootName string) (context.Context, *Span, *Remote) {
	t := &Trace{id: id, proc: proc}
	sp := t.newSpan(rootName, parentSpan)
	t.root = sp
	return context.WithValue(ctx, ctxKey{}, &ref{t: t, sp: sp}), sp, &Remote{t: t}
}

// Spans snapshots the fragment's recorded spans.
func (r *Remote) Spans() []SpanData {
	r.t.mu.Lock()
	out := make([]SpanData, len(r.t.spans))
	copy(out, r.t.spans)
	r.t.mu.Unlock()
	return out
}
