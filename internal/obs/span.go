package obs

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Phase is one stage of a parallel run — the decomposition the paper's
// Figures 8–10 plot per rank: time spent reading blocks from storage,
// exchanging data between ranks (all-to-all, broadcast, halo), computing
// the UDF, and writing results.
type Phase uint8

const (
	PhaseRead Phase = iota
	PhaseExchange
	PhaseCompute
	PhaseWrite
	// NumPhases sizes per-rank accumulators.
	NumPhases = 4
)

func (p Phase) String() string {
	switch p {
	case PhaseRead:
		return "read"
	case PhaseExchange:
		return "exchange"
	case PhaseCompute:
		return "compute"
	case PhaseWrite:
		return "write"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Phases lists every phase in report order.
func Phases() []Phase {
	return []Phase{PhaseRead, PhaseExchange, PhaseCompute, PhaseWrite}
}

// Spans is the one measurement of a parallel run's phases: per-rank
// accumulated durations, each phase timed once where it happens. Each rank
// adds to its own slot; slots are atomics so a late Report (or a concurrent
// metrics scrape) never races rank goroutines. A nil recorder drops every
// record.
type Spans struct {
	ns [][NumPhases]atomic.Int64
}

// NewSpans sizes a recorder for a world of the given rank count.
func NewSpans(ranks int) *Spans {
	if ranks < 1 {
		ranks = 1
	}
	return &Spans{ns: make([][NumPhases]atomic.Int64, ranks)}
}

// Add accumulates d into (rank, phase). Out-of-range ranks are dropped —
// a recorder sized for one world must not panic if reused on a larger one.
func (s *Spans) Add(rank int, p Phase, d time.Duration) {
	if s == nil || rank < 0 || rank >= len(s.ns) || p >= NumPhases {
		return
	}
	s.ns[rank][p].Add(int64(d))
}

// spansKey is the zero-size context key a run's recorder travels under.
type spansKey struct{}

// ContextWithSpans returns a copy of ctx carrying s, next to whatever
// request trace ctx already carries: the readers of a view bound to it
// record their read and exchange time into s.
func ContextWithSpans(ctx context.Context, s *Spans) context.Context {
	return context.WithValue(ctx, spansKey{}, s)
}

// SpansFrom returns the recorder ctx carries, or nil (which records
// nothing) when it carries none.
func SpansFrom(ctx context.Context) *Spans {
	s, _ := ctx.Value(spansKey{}).(*Spans)
	return s
}

// PhaseReport is a run's phase breakdown: per phase, the slowest rank's
// time — the wall time a bulk-synchronous run pays for that phase.
type PhaseReport struct {
	Ranks int
	// Max is indexed by Phase; phases a run never entered stay zero.
	Max [NumPhases]time.Duration
}

func (r PhaseReport) String() string {
	var b strings.Builder
	for i, p := range Phases() {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s %.1fms", p, float64(r.Max[p])/1e6)
	}
	fmt.Fprintf(&b, " (max across %d ranks)", r.Ranks)
	return b.String()
}

// Report reduces the per-rank accumulators into a PhaseReport.
func (s *Spans) Report() PhaseReport {
	var rep PhaseReport
	if s == nil {
		return rep
	}
	rep.Ranks = len(s.ns)
	for r := range s.ns {
		for p := range rep.Max {
			rep.Max[p] = max(rep.Max[p], time.Duration(s.ns[r][p].Load()))
		}
	}
	return rep
}

// ObserveInto folds every rank's per-phase time into the registry's
// dassa_phase_seconds histograms, one series per phase. Ranks that spent no
// time in a phase are skipped so empty phases don't flood the zero bucket.
func (s *Spans) ObserveInto(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	for _, p := range Phases() {
		var h *Histogram
		for r := range s.ns {
			v := s.ns[r][p].Load()
			if v == 0 {
				continue
			}
			if h == nil {
				h = reg.Histogram("dassa_phase_seconds",
					"per-rank time spent in each run phase (read/exchange/compute/write)",
					LatencyBuckets(), L("phase", p.String()))
			}
			h.Observe(time.Duration(v).Seconds())
		}
	}
}
