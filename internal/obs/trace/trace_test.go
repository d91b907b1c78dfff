package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dassa/internal/testutil/leakcheck"
)

func TestIDs(t *testing.T) {
	leakcheck.Check(t)
	a, b := NewID(), NewID()
	if a == b {
		t.Fatalf("two NewID calls collided: %s", a)
	}
	if len(a) != 32 {
		t.Fatalf("NewID length = %d, want 32", len(a))
	}
	if _, ok := ParseID(string(a)); !ok {
		t.Fatalf("ParseID rejected a minted ID %s", a)
	}
	for _, bad := range []string{"", "short", "has space padpadpad", "zz!!zz!!zz", strings.Repeat("a", 65)} {
		if _, ok := ParseID(bad); ok {
			t.Fatalf("ParseID accepted %q", bad)
		}
	}
	if id := OrNew("1234abcd-ef01"); id != "1234abcd-ef01" {
		t.Fatalf("OrNew did not adopt a valid inbound id: %s", id)
	}
	if id := OrNew("!!"); len(id) != 32 {
		t.Fatalf("OrNew did not mint on invalid input: %s", id)
	}
}

func TestSpanHierarchyAndStore(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(8, 4)
	ctx, root := New(context.Background(), st, "testproc", "", "root-op")
	root.SetAttr("build_version", "dev")

	cctx, child := Start(ctx, "child")
	child.SetAttrInt("shard", 3)
	_, grand := Start(cctx, "grandchild")
	grand.SetStatus("error")
	grand.End()
	child.End()
	Add(ctx, "posthoc", time.Now().Add(-time.Millisecond), time.Millisecond)
	root.End()

	id := IDFrom(ctx)
	td := st.Get(id)
	if td == nil {
		t.Fatal("completed trace not in store")
	}
	if td.Root != "root-op" || td.Process != "testproc" {
		t.Fatalf("root metadata wrong: %+v", td.Summary())
	}
	if len(td.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(td.Spans))
	}
	if orphans := td.Orphans(); len(orphans) != 0 {
		t.Fatalf("unexpected orphans: %v", orphans)
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	if byName["child"].Parent != byName["root-op"].SpanID {
		t.Fatal("child does not parent under root")
	}
	if byName["grandchild"].Parent != byName["child"].SpanID {
		t.Fatal("grandchild does not parent under child")
	}
	if byName["posthoc"].Parent != byName["root-op"].SpanID {
		t.Fatal("post-hoc span does not parent under the current span")
	}
	if byName["grandchild"].Status != "error" {
		t.Fatal("status lost")
	}

	// JSON export round-trips, span IDs as strings.
	raw, err := json.Marshal(td)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), fmt.Sprintf("%q", fmt.Sprint(byName["child"].SpanID))) {
		t.Fatalf("span IDs not string-encoded: %s", raw)
	}
	var back TraceData
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(td.Spans) || back.TraceID != td.TraceID {
		t.Fatal("JSON round-trip lost data")
	}

	var tree strings.Builder
	WriteTree(&tree, td)
	for _, want := range []string{"root-op", "  child", "    grandchild", "[error]", "shard=3"} {
		if !strings.Contains(tree.String(), want) {
			t.Fatalf("tree output missing %q:\n%s", want, tree.String())
		}
	}
}

func TestLateAndExcessSpansDropped(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(4, 2)
	ctx, root := New(context.Background(), st, "p", "", "root")
	_, late := Start(ctx, "late")
	for i := 0; i < MaxSpans+10; i++ {
		_, sp := Start(ctx, "filler")
		sp.End()
	}
	root.End()
	late.End() // after the root: must not mutate the stored trace
	td := st.Get(IDFrom(ctx))
	if td == nil {
		t.Fatal("trace missing")
	}
	if len(td.Spans) != MaxSpans {
		t.Fatalf("span cap not enforced: %d", len(td.Spans))
	}
	if td.DroppedSpans != 11 { // 10 over MaxSpans + the root's reserved slot
		t.Fatalf("dropped count = %d, want 11", td.DroppedSpans)
	}
	for _, sd := range td.Spans {
		if sd.Name == "late" {
			t.Fatal("late span mutated a completed trace")
		}
	}
}

func TestStoreEvictionUnderChurn(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(8, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, root := New(context.Background(), st, "p", "", fmt.Sprintf("op-%d-%d", g, i))
				root.End()
			}
		}(g)
	}
	wg.Wait()
	stats := st.Stats()
	if stats.Added != 200 {
		t.Fatalf("added = %d, want 200", stats.Added)
	}
	if stats.Evicted != 200-8 {
		t.Fatalf("evicted = %d, want %d", stats.Evicted, 200-8)
	}
	recent := st.Recent()
	if len(recent) != 8 {
		t.Fatalf("ring holds %d traces, want 8", len(recent))
	}
	if len(st.Slowest()) != 4 {
		t.Fatalf("slowest holds %d, want 4", len(st.Slowest()))
	}
	// Recent is newest-first.
	for i := 1; i < len(recent); i++ {
		if recent[i-1].StartUnixNano < recent[i].StartUnixNano {
			t.Fatal("Recent not newest-first")
		}
	}
}

func TestSlowestRetentionOrdering(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(2, 3)
	// Durations injected directly: Add consumes completed TraceData.
	for i, durMS := range []int64{5, 50, 1, 500, 20, 2} {
		st.Add(&TraceData{TraceID: ID(fmt.Sprintf("%08d", i)), Root: "op", DurNS: durMS * 1e6})
	}
	slow := st.Slowest()
	if len(slow) != 3 {
		t.Fatalf("retained %d, want 3", len(slow))
	}
	wantMS := []int64{500, 50, 20}
	for i, td := range slow {
		if td.DurNS != wantMS[i]*1e6 {
			t.Fatalf("slowest[%d] = %dns, want %dms", i, td.DurNS, wantMS[i])
		}
	}
	// A slow trace evicted from the tiny ring is still reachable by ID.
	if st.Get("00000003") == nil {
		t.Fatal("slowest-retained trace not reachable via Get")
	}
}

func TestRemoteReassembly(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(4, 2)
	ctx, root := New(context.Background(), st, "coordinator", "", "detect")
	dctx, dispatch := Start(ctx, "dispatch")

	// The "worker side": same trace ID, fragment parented under dispatch.
	wctx, wroot, rem := StartRemote(context.Background(), IDFrom(ctx), "worker-1", SpanFrom(dctx), "worker.shard")
	_, inner := Start(wctx, "dass.read")
	inner.End()
	wroot.End()

	Merge(dctx, rem.Spans())
	dispatch.End()
	root.End()

	td := st.Get(IDFrom(ctx))
	if td == nil {
		t.Fatal("trace missing")
	}
	if len(td.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(td.Spans))
	}
	if orphans := td.Orphans(); len(orphans) != 0 {
		t.Fatalf("reassembled trace has orphans: %v", orphans)
	}
	procs := map[string]bool{}
	for _, sd := range td.Spans {
		procs[sd.Process] = true
	}
	if !procs["coordinator"] || !procs["worker-1"] {
		t.Fatalf("processes missing from reassembled trace: %v", procs)
	}
}

// TestUnendedSpansCounted pins the runtime check that every span ends:
// a span still open when its root ends is counted on the trace, and a
// worker fragment's count rides its root span into the reassembled trace.
func TestUnendedSpansCounted(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(4, 2)
	run := func(endChild bool) *TraceData {
		ctx, root := New(context.Background(), st, "p", "", "root")
		_, child := Start(ctx, "child")
		if endChild {
			child.End()
		}
		root.End()
		child.End() // late: dropped, and the count already taken
		return st.Get(IDFrom(ctx))
	}
	if td := run(false); td.UnendedSpans != 1 || td.Summary().UnendedSpans != 1 {
		t.Fatalf("child never ended: UnendedSpans = %d (summary %d), want 1", td.UnendedSpans, td.Summary().UnendedSpans)
	} else {
		var tree strings.Builder
		WriteTree(&tree, td)
		if !strings.Contains(tree.String(), "unended=1") {
			t.Fatalf("tree header does not report the unended span:\n%s", tree.String())
		}
	}
	if td := run(true); td.UnendedSpans != 0 {
		t.Fatalf("child ended before the root: UnendedSpans = %d, want 0", td.UnendedSpans)
	}

	// A worker fragment with an open child: its root carries the count,
	// and the coordinator's reassembled trace adds it to its own.
	ctx, root := New(context.Background(), st, "coordinator", "", "detect")
	wctx, wroot, rem := StartRemote(context.Background(), IDFrom(ctx), "worker-1", SpanFrom(ctx), "worker.shard")
	_, open := Start(wctx, "dass.read")
	wroot.End()
	spans := rem.Spans()
	if len(spans) != 1 || len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Attr{K: "unended_spans", V: "1"}) {
		t.Fatalf("fragment root attrs = %+v, want unended_spans=1", spans)
	}
	open.End()
	Merge(ctx, spans)
	root.End()
	if td := st.Get(IDFrom(ctx)); td.UnendedSpans != 1 {
		t.Fatalf("reassembled trace UnendedSpans = %d, want the fragment's 1", td.UnendedSpans)
	}
}

func TestEndErrStatuses(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(2, 2)
	ctx, root := New(context.Background(), st, "p", "", "root")
	_, a := Start(ctx, "cancelled")
	a.EndErr(context.Canceled)
	_, b := Start(ctx, "failed")
	b.EndErr(errors.New("boom"))
	_, c := Start(ctx, "ok")
	c.EndErr(nil)
	root.End()
	td := st.Get(IDFrom(ctx))
	want := map[string]string{"cancelled": "cancelled", "failed": "error", "ok": "", "root": ""}
	for _, sd := range td.Spans {
		if got := sd.Status; got != want[sd.Name] {
			t.Fatalf("span %s status = %q, want %q", sd.Name, got, want[sd.Name])
		}
		if sd.Name == "failed" {
			if len(sd.Attrs) != 1 || sd.Attrs[0].K != "error" || sd.Attrs[0].V != "boom" {
				t.Fatalf("error attr missing: %+v", sd.Attrs)
			}
		}
	}
}

func TestAttrBounds(t *testing.T) {
	leakcheck.Check(t)
	st := NewStore(2, 2)
	_, root := New(context.Background(), st, "p", "my-id-1234", "root")
	for i := 0; i < MaxAttrs+5; i++ {
		root.SetAttr(fmt.Sprintf("k%d", i), "v")
	}
	root.SetAttr("huge", strings.Repeat("x", 10*maxAttrLen))
	root.End()
	td := st.Get("my-id-1234")
	if len(td.Spans[0].Attrs) != MaxAttrs {
		t.Fatalf("attr cap not enforced: %d", len(td.Spans[0].Attrs))
	}
	for _, a := range td.Spans[0].Attrs {
		if len(a.V) > maxAttrLen {
			t.Fatalf("attr value not truncated: %d bytes", len(a.V))
		}
	}
}

// TestDisabledPathZeroAlloc is the acceptance gate: without a trace in the
// context, the whole span surface must not allocate. Enforced here (not
// only in the benchmark) so a plain `go test` run catches regressions.
func TestDisabledPathZeroAlloc(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "hot")
		sp.SetAttr("k", "v")
		sp.SetAttrInt("n", 42)
		sp.SetStatus("error")
		sp.EndErr(nil)
		sp.End()
		Add(c2, "phase", start, time.Millisecond)
		_ = IDFrom(c2)
		_ = SpanFrom(c2)
		_ = Current(c2)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f bytes-equivalents/op, want 0", allocs)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "hot")
		sp.SetAttrInt("n", int64(i))
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	st := NewStore(8, 4)
	ctx, root := New(context.Background(), st, "bench", "", "root")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "hot")
		sp.SetAttrInt("n", int64(i))
		sp.End()
	}
}
