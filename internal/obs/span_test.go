package obs

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpansReport(t *testing.T) {
	s := NewSpans(4)
	for rank := 0; rank < 4; rank++ {
		s.Add(rank, PhaseRead, time.Duration(rank+1)*10*time.Millisecond)
		s.Add(rank, PhaseExchange, 5*time.Millisecond)
	}
	s.Add(3, PhaseCompute, 100*time.Millisecond)
	s.Add(3, PhaseCompute, 20*time.Millisecond) // accumulates

	rep := s.Report()
	want := PhaseReport{Ranks: 4, Max: [NumPhases]time.Duration{
		PhaseRead:     40 * time.Millisecond,
		PhaseExchange: 5 * time.Millisecond,
		PhaseCompute:  120 * time.Millisecond,
	}}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	if got, want := rep.String(), "read 40.0ms | exchange 5.0ms | compute 120.0ms | write 0.0ms (max across 4 ranks)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestSpansNilAndBoundsSafe: nil recorders and out-of-range ranks are
// dropped, not panics — readers of a view whose context carries no
// recorder record through nil.
func TestSpansNilAndBoundsSafe(t *testing.T) {
	var s *Spans
	s.Add(0, PhaseRead, time.Second)
	if rep := s.Report(); rep != (PhaseReport{}) {
		t.Fatalf("nil report: %+v", rep)
	}
	if got := SpansFrom(context.Background()); got != nil {
		t.Fatalf("a context without a recorder gave %p", got)
	}
	SpansFrom(context.Background()).Add(0, PhaseRead, time.Second)

	s2 := NewSpans(2)
	ctx := ContextWithSpans(context.Background(), s2)
	SpansFrom(ctx).Add(1, PhaseExchange, time.Millisecond)
	SpansFrom(ctx).Add(5, PhaseRead, time.Second) // out of range: dropped
	if rep := s2.Report(); rep.Max[PhaseRead] != 0 || rep.Max[PhaseExchange] != time.Millisecond {
		t.Fatalf("recorder from the context: %+v", rep)
	}
}

// TestSpansConcurrent hammers one recorder from many rank goroutines while
// a reporter reads — the -race contract for the haee run loop.
func TestSpansConcurrent(t *testing.T) {
	s := NewSpans(8)
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(rank, Phase(i%NumPhases), time.Microsecond)
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = s.Report()
		}
	}()
	wg.Wait()
	<-done
	// Every rank added 250 µs to each phase.
	rep := s.Report()
	for _, p := range Phases() {
		if rep.Max[p] != 250*time.Microsecond {
			t.Fatalf("%s max = %v, want 250µs", p, rep.Max[p])
		}
	}
}

func TestObserveInto(t *testing.T) {
	s := NewSpans(3)
	s.Add(0, PhaseRead, 2*time.Millisecond)
	s.Add(1, PhaseRead, 3*time.Millisecond)
	// rank 2 idle; compute untouched entirely.
	r := NewRegistry()
	s.ObserveInto(r)
	h := r.Histogram("dassa_phase_seconds", "", LatencyBuckets(), L("phase", "read"))
	if h.Count() != 2 {
		t.Fatalf("read observations = %d, want 2", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("read sum = %gs, want 0.005s", got)
	}
	var sb strings.Builder
	_ = r.WriteProm(&sb)
	if strings.Contains(sb.String(), `phase="compute"`) {
		t.Fatalf("idle phase must not create a series:\n%s", sb.String())
	}
}

func TestLoggerGrammar(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "k", 1)
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("level/format wrong: %s", out)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level must error")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format must error")
	}
	// Nop swallows everything without touching a writer.
	OrNop(nil).Error("into the void")
	if lv, _ := ParseLevel("ERROR"); lv != slog.LevelError {
		t.Fatal("ParseLevel must be case-insensitive")
	}
}
