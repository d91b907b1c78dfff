package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSeriesCapAdversarial is the registry's cardinality bound: even if an
// unbounded request string reaches a label value, the registry must stay
// bounded.
func TestSeriesCapAdversarial(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 10_000; i++ {
		r.Counter("req_total", "requests", L("path", fmt.Sprintf("/user/%d", i))).Inc()
	}
	r.mu.RLock()
	n := len(r.series)
	r.mu.RUnlock()
	if n > DefaultSeriesLimit+1 {
		t.Fatalf("10k distinct label values minted %d series, cap is %d(+overflow)", n, DefaultSeriesLimit)
	}

	// Everything past the cap lands in one overflow series that keeps
	// counting: 10k increments minus the ones the capped series absorbed.
	over := r.Counter("req_total", "requests", overflowLabels...)
	if got := over.Value(); got != int64(10_000-DefaultSeriesLimit) {
		t.Fatalf("overflow counter = %d, want %d", got, 10_000-DefaultSeriesLimit)
	}

	// Series created before the cap was hit keep their identity.
	if got := r.Counter("req_total", "requests", L("path", "/user/0")).Value(); got != 1 {
		t.Fatalf("pre-cap series = %d, want 1", got)
	}
}

// TestSeriesCapPerFamily: one exploding family must not steal capacity
// from well-behaved ones.
func TestSeriesCapPerFamily(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 500; i++ {
		r.Counter("noisy_total", "exploding", L("v", fmt.Sprintf("%d", i))).Inc()
	}
	for _, route := range []string{"/search", "/read", "/detect", "/status"} {
		r.Counter("quiet_total", "bounded", L("route", route)).Inc()
	}
	for _, route := range []string{"/search", "/read", "/detect", "/status"} {
		if got := r.Counter("quiet_total", "bounded", L("route", route)).Value(); got != 1 {
			t.Fatalf("route %s = %d, want 1 (family contamination)", route, got)
		}
	}
}

func TestSetSeriesLimit(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(3)
	for i := 0; i < 10; i++ {
		r.Gauge("g", "gauge", L("v", fmt.Sprintf("%d", i))).Set(float64(i))
	}
	r.mu.RLock()
	n := len(r.series)
	r.mu.RUnlock()
	if n > 4 {
		t.Fatalf("limit 3 produced %d series", n)
	}
	// n < 1 resets to the default.
	r.SetSeriesLimit(0)
	r.mu.RLock()
	lim := r.limit
	r.mu.RUnlock()
	if lim != DefaultSeriesLimit {
		t.Fatalf("reset limit = %d, want %d", lim, DefaultSeriesLimit)
	}
}

// TestHostileLabelValuesEscape: values with quotes, backslashes, and
// newlines must not break the exposition format (one sample per line,
// quoted and escaped label values).
func TestHostileLabelValuesEscape(t *testing.T) {
	r := NewRegistry()
	hostile := []string{
		`inject="1"} evil_total 9`,
		"line1\nline2",
		`back\slash`,
		"\x00\x7f",
	}
	for _, v := range hostile {
		r.Counter("h_total", "hostile labels", L("v", v)).Inc()
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.HasPrefix(line, "h_total{") {
			t.Fatalf("unexpected exposition line %q — label value broke out of its sample", line)
		}
		if strings.ContainsAny(line, "\x00") {
			t.Fatalf("raw control byte leaked into exposition: %q", line)
		}
	}
}

// TestSeriesCapConcurrent: racing adversarial registrations respect the
// cap and never panic (run under -race in CI).
func TestSeriesCapConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total", "c", L("v", fmt.Sprintf("%d-%d", g, i))).Inc()
			}
		}(g)
	}
	wg.Wait()
	r.mu.RLock()
	n := len(r.series)
	r.mu.RUnlock()
	if n > 9 {
		t.Fatalf("concurrent registrations minted %d series, cap 8(+overflow)", n)
	}
	var total int64
	r.mu.RLock()
	for _, s := range r.series {
		if s.ctr != nil {
			total += s.ctr.Value()
		}
	}
	r.mu.RUnlock()
	if total != 8*200 {
		t.Fatalf("increments lost under cap: total %d, want %d", total, 8*200)
	}
}

// TestOverflowTelemetry: hitting a family's cap must itself be observable —
// per-family counts via OverflowCounts and a synthetic
// dassa_metrics_overflow_total{family=...} series in the exposition.
func TestOverflowTelemetry(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(2)
	for i := 0; i < 5; i++ {
		r.Counter("exploding_total", "exploding", L("v", fmt.Sprintf("%d", i))).Inc()
	}
	r.Counter("bounded_total", "bounded", L("route", "/read")).Inc()

	ov := r.OverflowCounts()
	if len(ov) != 1 || ov["exploding_total"] != 3 {
		t.Fatalf("OverflowCounts = %v, want exploding_total:3 only", ov)
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `dassa_metrics_overflow_total{family="exploding_total"} 3`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, sb.String())
	}
	if strings.Contains(sb.String(), `family="bounded_total"`) {
		t.Fatal("healthy family reported as overflowed")
	}

	// The synthetic family also lands in the expvar snapshot.
	snap := r.Snapshot()
	if v, ok := snap[`dassa_metrics_overflow_total{family="exploding_total"}`]; !ok || v.(float64) != 3 {
		t.Fatalf("snapshot overflow sample = %v (present=%v)", v, ok)
	}
}
