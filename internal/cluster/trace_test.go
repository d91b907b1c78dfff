package cluster

import (
	"context"
	"testing"
	"time"

	"dassa/internal/faults"
	"dassa/internal/obs/trace"
	"dassa/internal/testutil/leakcheck"
	"dassa/internal/wire"
)

// tracedRun executes one coordinator request under a fresh trace and
// returns the completed TraceData.
func tracedRun(t *testing.T, co *Coordinator, req Request, timeout time.Duration) (*trace.TraceData, *Result, error) {
	t.Helper()
	store := trace.NewStore(4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ctx, root := trace.New(ctx, store, "test", trace.NewID(), "test.run")
	res, err := co.Run(ctx, req)
	root.End()
	td := store.Get(trace.IDFrom(ctx))
	if td == nil {
		t.Fatal("trace not recorded after root End")
	}
	return td, res, err
}

// TestClusterTraceReassembly runs a healthy two-worker request and checks
// the coordinator reassembles one trace spanning all three processes:
// dispatch spans on the coordinator side, worker.shard spans shipped back
// from both named workers, and no orphaned parents.
func TestClusterTraceReassembly(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 16, 3)
	_, a1 := startWorker(t, WorkerConfig{Name: "worker-one"})
	_, a2 := startWorker(t, WorkerConfig{Name: "worker-two"})
	co := newCoord(t, []string{a1, a2}, nil)
	waitFor(t, 10*time.Second, func() bool { return co.healthyCount() == 2 })

	td, res, err := tracedRun(t, co, Request{View: v, Op: OpRead, Shards: 6}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("want both workers used, got %d", res.Workers)
	}

	var dispatch, shard int
	procs := map[string]bool{}
	for _, sp := range td.Spans {
		procs[sp.Process] = true
		switch sp.Name {
		case "cluster.dispatch":
			dispatch++
		case "worker.shard":
			shard++
		}
	}
	if dispatch != 6 {
		t.Errorf("want 6 cluster.dispatch spans, got %d", dispatch)
	}
	if shard != 6 {
		t.Errorf("want 6 worker.shard spans shipped back, got %d", shard)
	}
	for _, proc := range []string{"test", "worker-one", "worker-two"} {
		if !procs[proc] {
			t.Errorf("no spans from process %q (have %v)", proc, procs)
		}
	}
	if orphans := td.Orphans(); len(orphans) != 0 {
		t.Errorf("reassembled trace has %d orphan spans: %v", len(orphans), orphans)
	}
	if td.UnendedSpans != 0 {
		t.Errorf("reassembled trace has %d spans still open when their root ended", td.UnendedSpans)
	}
}

// TestClusterTraceRedispatch kills one worker mid-request and checks the
// reassembled trace tells the failure story: at least one dispatch span
// ended in error and a later attempt carries the redispatch marker (or the
// shard degraded, which must then appear as a cluster.degrade span) — and
// the worker's death must not leave orphaned span fragments behind.
func TestClusterTraceRedispatch(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 32, 3)
	slow := faults.New(faults.Config{Seed: 3, SlowProb: 1, SlowLatency: 80 * time.Millisecond})
	victim, a1 := startWorker(t, WorkerConfig{
		Name:   "victim",
		Faults: wire.FaultConfig{Injector: slow, Label: "victim"},
	})
	_, a2 := startWorker(t, WorkerConfig{Name: "survivor"})
	co := newCoord(t, []string{a1, a2}, func(c *Config) {
		c.MaxAttempts = 4
		c.DeadAfter = 500 * time.Millisecond
	})
	waitFor(t, 10*time.Second, func() bool { return co.healthyCount() == 2 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(60 * time.Millisecond)
		victim.Close()
	}()
	td, res, err := tracedRun(t, co, Request{View: v, Op: OpRead, Shards: 8}, 30*time.Second)
	<-done
	if err != nil {
		t.Fatalf("run with mid-request worker death failed: %v", err)
	}
	if res.Redispatched == 0 && res.DegradedShards == 0 {
		t.Skip("kill landed after all shards completed; nothing exercised (timing)")
	}

	var failedDispatch, redispatch, degrade int
	for _, sp := range td.Spans {
		switch sp.Name {
		case "cluster.dispatch":
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.K] = a.V
			}
			if sp.Status != "" && sp.Status != "ok" {
				failedDispatch++
			}
			if attrs["redispatch"] == "true" {
				redispatch++
			}
		case "cluster.degrade":
			degrade++
		}
	}
	if res.Redispatched > 0 && redispatch == 0 {
		t.Errorf("result reports %d redispatches but trace has no redispatch-marked span", res.Redispatched)
	}
	if res.DegradedShards > 0 && degrade == 0 {
		t.Errorf("result reports %d degraded shards but trace has no cluster.degrade span", res.DegradedShards)
	}
	if failedDispatch == 0 && redispatch > 0 {
		t.Errorf("trace shows redispatch but no failed dispatch span preceding it")
	}
	if orphans := td.Orphans(); len(orphans) != 0 {
		t.Errorf("trace has %d orphan spans after worker death: %v", len(orphans), orphans)
	}
	if td.UnendedSpans != 0 {
		t.Errorf("trace has %d spans still open when their root ended after worker death", td.UnendedSpans)
	}
}
