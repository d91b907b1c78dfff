package cluster

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/faults"
	"dassa/internal/testutil/leakcheck"
	"dassa/internal/wire"
)

// TestClusterWorkerDeathRedispatch kills one of two workers mid-request
// (≥8 shards in flight) with re-dispatch enabled. The run must complete —
// fully, because the surviving worker absorbs the dead worker's shards —
// and the merged data must equal the local answer.
func TestClusterWorkerDeathRedispatch(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 32, 3)

	// Slow the victim's outbound frames so its shards are reliably still
	// in flight when the kill lands.
	slow := faults.New(faults.Config{Seed: 3, SlowProb: 1, SlowLatency: 80 * time.Millisecond})
	victim, a1 := startWorker(t, WorkerConfig{
		Faults: wire.FaultConfig{Injector: slow, Label: "victim"},
	})
	_, a2 := startWorker(t, WorkerConfig{})
	co := newCoord(t, []string{a1, a2}, func(c *Config) {
		c.MaxAttempts = 4
		c.DeadAfter = 500 * time.Millisecond
	})

	waitFor(t, 10*time.Second, func() bool { return co.healthyCount() == 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(60 * time.Millisecond)
		victim.Close()
	}()
	res, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 8})
	<-done
	if err != nil {
		t.Fatalf("run with mid-request worker death failed: %v", err)
	}
	if res.Redispatched == 0 && res.DegradedShards == 0 {
		t.Log("kill landed after all shards completed; nothing exercised (timing)")
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedShards == 0 {
		sameValues(t, res.Data, want)
	} else {
		assertDegradedMatches(t, res, want, v)
	}
}

// TestClusterWorkerDeathDegrades disables re-dispatch (MaxAttempts 1) so a
// mid-request worker death must surface as a NaN-degraded result whose
// QualityReport names the lost shard — never an error, hang, or silently
// wrong answer.
func TestClusterWorkerDeathDegrades(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 32, 3)
	slow := faults.New(faults.Config{Seed: 5, SlowProb: 1, SlowLatency: 120 * time.Millisecond})
	victim, a1 := startWorker(t, WorkerConfig{
		Faults: wire.FaultConfig{Injector: slow, Label: "victim"},
	})
	_, a2 := startWorker(t, WorkerConfig{})
	co := newCoord(t, []string{a1, a2}, func(c *Config) {
		c.MaxAttempts = 1
		c.DeadAfter = 500 * time.Millisecond
	})

	waitFor(t, 10*time.Second, func() bool { return co.healthyCount() == 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		time.Sleep(60 * time.Millisecond)
		victim.Close()
	}()
	res, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 8})
	if err != nil {
		t.Fatalf("degrade policy returned error: %v", err)
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedShards == 0 {
		// The victim's frames were slow but the kill still lost the race;
		// result must then be complete and exact.
		sameValues(t, res.Data, want)
		t.Log("kill landed after completion; degraded path not exercised (timing)")
		return
	}
	if !res.Quality.Degraded() {
		t.Fatal("degraded shards but clean QualityReport")
	}
	assertDegradedMatches(t, res, want, v)
}

// assertDegradedMatches checks a degraded result's invariants: surviving
// cells equal the local answer, lost cells are NaN, and the QualityReport's
// gaps cover exactly the NaN rows.
func assertDegradedMatches(t *testing.T, res *Result, want *dasf.Array2D, v *dass.View) {
	t.Helper()
	nch, _ := v.Shape()
	lost := make([]bool, nch)
	for _, g := range res.Quality.Gaps {
		for c := g.ChLo; c < g.ChHi && c < nch; c++ {
			lost[c] = true
		}
	}
	anyLost := false
	for c := 0; c < res.Data.Channels; c++ {
		row, wrow := res.Data.Row(c), want.Row(c)
		for i := range row {
			if lost[c] {
				anyLost = true
				if !math.IsNaN(row[i]) {
					t.Fatalf("lost channel %d sample %d not NaN: %v", c, i, row[i])
				}
				continue
			}
			if row[i] != wrow[i] && !(math.IsNaN(row[i]) && math.IsNaN(wrow[i])) {
				t.Fatalf("surviving channel %d sample %d: got %v want %v", c, i, row[i], wrow[i])
			}
		}
	}
	if !anyLost {
		t.Fatal("QualityReport gaps cover no channels despite degraded shards")
	}
	if res.Quality.LostSamples == 0 || len(res.Quality.LostFiles) == 0 {
		t.Fatalf("quality accounting empty: %+v", res.Quality)
	}
}

// TestClusterCancellationPoisonsWorker cancels the client context
// mid-request and asserts the worker's in-flight shards die within one
// heartbeat interval — the cancel frame beats the deadline.
func TestClusterCancellationPoisonsWorker(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 16, 3)

	// Slow the storage layer so shards are mid-read when the cancel lands.
	dasf.SetInjector(faults.New(faults.Config{Seed: 9, SlowProb: 1, SlowLatency: 150 * time.Millisecond}))
	t.Cleanup(func() { dasf.SetInjector(nil) })

	w, a1 := startWorker(t, WorkerConfig{HeartbeatEvery: 100 * time.Millisecond})
	co := newCoord(t, []string{a1}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 4})
		errc <- err
	}()

	// Wait for shards to actually start on the worker, then cancel.
	waitFor(t, 5*time.Second, func() bool { return w.InFlight() > 0 })
	cancel()

	select {
	case err := <-errc:
		if !dass.IsCancellation(err) {
			t.Fatalf("cancelled run returned %v, want cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run hung")
	}
	// The worker must observe the poison and reap its jobs promptly — the
	// slack allows for one in-progress slow read to finish its sleep.
	waitFor(t, 3*time.Second, func() bool { return w.InFlight() == 0 })
}

// TestClusterDeadlinePropagates lets the wire deadline (not a cancel
// frame) stop remote shards: the request deadline expires while shards
// run, and both sides agree the run is a cancellation.
//
// Nothing here races the machine's load: every read stalls an order of
// magnitude past the deadline (the stall is cancellable, so the test does
// not wait it out), so no shard can finish inside it however the scheduler
// treats the run; the deadline clock starts only once the link is up, so a
// slow handshake cannot spend it; and the drain bound is generous.
func TestClusterDeadlinePropagates(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 16, 3)
	const deadline = 400 * time.Millisecond
	dasf.SetInjector(faults.New(faults.Config{Seed: 13, SlowProb: 1, SlowLatency: 10 * deadline}))
	t.Cleanup(func() { dasf.SetInjector(nil) })

	w, a1 := startWorker(t, WorkerConfig{HeartbeatEvery: 100 * time.Millisecond})
	co := newCoord(t, []string{a1}, nil)
	waitFor(t, 10*time.Second, func() bool { return co.healthyCount() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	_, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 4})
	if !dass.IsCancellation(err) {
		t.Fatalf("expired run returned %v, want cancellation", err)
	}
	waitFor(t, 15*time.Second, func() bool { return w.InFlight() == 0 })
}

// TestClusterWireDropChaos runs with frame drops on the worker's outbound
// path at 8 workers' worth of shards: lost results must time out and
// re-dispatch until the answer completes (or degrades) — never hang and
// never come back wrong.
func TestClusterWireDropChaos(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 32, 3)
	drop := faults.New(faults.Config{Seed: 21, TransientProb: 0.3, MaxTransient: 2})
	addrs := make([]string, 8)
	for i := range addrs {
		// Every worker shares the drop schedule but keys it by its own
		// connection label, so streaks are independent.
		_, addrs[i] = startWorker(t, WorkerConfig{
			Faults: wire.FaultConfig{Injector: drop},
		})
	}
	co := newCoord(t, addrs, func(c *Config) {
		c.MaxAttempts = 6
		c.ShardTimeout = 700 * time.Millisecond
		c.DeadAfter = 2 * time.Second
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 16})
	if err != nil {
		t.Fatalf("drop chaos run failed: %v", err)
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedShards == 0 {
		sameValues(t, res.Data, want)
	} else {
		assertDegradedMatches(t, res, want, v)
	}
	t.Logf("drop chaos: %d shards, %d redispatched, %d degraded, %d workers",
		res.Shards, res.Redispatched, res.DegradedShards, res.Workers)
}

// TestClusterPartialWriteSeversAndRecovers injects a partial-write fault
// on the coordinator's first connection to one worker: the conn dies
// mid-frame, the link redials, and the run still completes.
func TestClusterPartialWriteSeversAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 16, 2)
	// Corrupt exactly the labeled conn: the coordinator's link to a1.
	_, a1 := startWorker(t, WorkerConfig{})
	_, a2 := startWorker(t, WorkerConfig{})
	// Labels default to each link's worker address, so only the a1 link
	// matches the corrupt schedule; a2 stays clean.
	inj := faults.New(faults.Config{Seed: 2, Corrupt: []string{a1}})
	co := newCoord(t, []string{a1, a2}, func(c *Config) {
		c.MaxAttempts = 4
		c.Faults = wire.FaultConfig{Injector: inj}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 8})
	if err != nil {
		t.Fatalf("partial-write chaos run failed: %v", err)
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedShards == 0 {
		sameValues(t, res.Data, want)
	} else {
		assertDegradedMatches(t, res, want, v)
	}
}

// blackHole serves the handshake and heartbeats like a healthy worker but
// swallows every shard request — the pathology ShardTimeout exists for: a
// live connection that makes no progress.
func blackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				c := wire.NewConn(nc, 16)
				defer c.Abort()
				f, err := c.Recv()
				if err != nil || f.Type != wire.TypeHello {
					return
				}
				_ = c.SendEnvelope(wire.TypeWelcome, wire.Welcome{Worker: "blackhole", Version: wire.Version})
				stop := make(chan struct{})
				defer close(stop)
				go func() {
					tick := time.NewTicker(100 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case now := <-tick.C:
							_ = c.SendEnvelope(wire.TypeHeartbeat, wire.Heartbeat{UnixNano: now.UnixNano()})
						}
					}
				}()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClusterBlackHoleRedispatch proves the per-dispatch timeout: shards
// sent to a live-but-unresponsive worker time out and re-dispatch to the
// healthy one, and the run completes exactly.
func TestClusterBlackHoleRedispatch(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 16, 2)
	_, good := startWorker(t, WorkerConfig{})
	hole := blackHole(t)
	co := newCoord(t, []string{good, hole}, func(c *Config) {
		c.MaxAttempts = 3
		c.ShardTimeout = 300 * time.Millisecond
	})
	waitFor(t, 10*time.Second, func() bool { return co.healthyCount() == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 8})
	if err != nil {
		t.Fatalf("black-hole run failed: %v", err)
	}
	if res.Redispatched == 0 {
		t.Fatal("no shard was re-dispatched despite a black-hole worker")
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, res.Data, want)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
