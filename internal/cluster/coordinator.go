package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/pfs"
	"dassa/internal/wire"
)

// shardsPerWorker sets the default shard count as a multiple of the
// healthy worker count: enough to overlap I/O and compute without
// fragmenting small windows.
const shardsPerWorker = 2

// Config sizes a Coordinator. Zero values choose sane defaults.
type Config struct {
	// Workers are the dassw addresses (host:port) to dial. At least one is
	// required.
	Workers []string
	// MaxAttempts bounds how many workers a shard is offered to before the
	// coordinator gives up on it (default 3).
	MaxAttempts int
	// HeartbeatEvery is the liveness beacon period workers are expected to
	// honor (default 1s); DeadAfter is the silence threshold after which a
	// connection is declared dead (default 3 × HeartbeatEvery).
	HeartbeatEvery time.Duration
	DeadAfter      time.Duration
	// DialTimeout bounds each connection attempt (default 5s);
	// RedialBackoff is the pause between attempts to a dead worker
	// (default 1s).
	DialTimeout   time.Duration
	RedialBackoff time.Duration
	// ShardTimeout, when positive, bounds one dispatch attempt: a shard
	// whose reply does not arrive in time is re-dispatched (its eventual
	// stale reply is discarded). Zero trusts the request deadline and the
	// link's heartbeat-based death detection — the right default, since a
	// healthy link with a slow shard is progress, not failure. Set it in
	// chaos configurations where frames can vanish without killing the
	// connection.
	ShardTimeout time.Duration
	// FailPolicy decides what a shard that exhausts MaxAttempts does to
	// the run: dass.FailAbort (default) kills it, dass.FailDegrade
	// NaN-masks the shard and records it in the QualityReport — exactly
	// like a failed local rank.
	FailPolicy dass.FailPolicy
	// Log receives structured coordinator events (default discard).
	Log *slog.Logger
	// Registry, when non-nil, receives cluster metrics (worker gauge,
	// shard outcome counters, per-worker latency, wire bytes).
	Registry *obs.Registry
	// Faults, when its Injector is non-nil, injects wire-layer failures on
	// every coordinator connection — for chaos tests.
	Faults wire.FaultConfig
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.HeartbeatEvery
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = time.Second
	}
	c.Log = obs.OrNop(c.Log)
	return c
}

// Coordinator partitions requests into channel shards, dispatches them to
// workers, and merges partial results through the same quality accounting
// the in-process engine uses. It keeps one managed connection per
// configured worker, redialing dead ones in the background.
type Coordinator struct {
	cfg    Config
	links  []*workerLink
	nextID atomic.Uint64
	m      *metrics

	closed   chan struct{}
	closing  atomic.Bool
	managers sync.WaitGroup

	// rr cycles shard placement across healthy links.
	rr atomic.Uint64

	mu      sync.Mutex
	pending map[pendKey]*pendEntry
}

type pendKey struct {
	id    uint64
	shard int
}

type pendEntry struct {
	ch   chan shardReply
	link *workerLink
}

type shardReply struct {
	res       wire.ShardResult
	data      []float64
	worker    string
	err       error
	cancelled bool
}

// NewCoordinator starts managed connections to every configured worker and
// returns immediately; dialing happens in the background. Close releases
// everything.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses configured")
	}
	co := &Coordinator{
		cfg:     cfg,
		closed:  make(chan struct{}),
		pending: map[pendKey]*pendEntry{},
	}
	for _, addr := range cfg.Workers {
		co.links = append(co.links, &workerLink{addr: addr, co: co})
	}
	co.m = newMetrics(cfg.Registry, co)
	for _, l := range co.links {
		co.managers.Add(1)
		go func(l *workerLink) {
			defer co.managers.Done()
			l.manage()
		}(l)
	}
	return co, nil
}

// Close severs every worker connection and stops the redial loops.
func (co *Coordinator) Close() {
	if !co.closing.CompareAndSwap(false, true) {
		return
	}
	close(co.closed)
	for _, l := range co.links {
		l.abort()
	}
	co.managers.Wait()
}

// healthyCount returns how many workers currently have a live connection.
func (co *Coordinator) healthyCount() int {
	n := 0
	for _, l := range co.links {
		if l.isAlive() {
			n++
		}
	}
	return n
}

// Healthy reports whether at least one worker is alive.
func (co *Coordinator) Healthy() bool { return co.healthyCount() > 0 }

// HealthyWorkers returns how many workers currently have a live
// connection (readiness probes report it).
func (co *Coordinator) HealthyWorkers() int { return co.healthyCount() }

// Workers returns the configured worker addresses.
func (co *Coordinator) Workers() []string { return co.cfg.Workers }

// pickLink returns a healthy link, preferring one different from avoid.
// Nil means no worker is alive.
func (co *Coordinator) pickLink(avoid *workerLink) *workerLink {
	n := len(co.links)
	start := int(co.rr.Add(1)) % n
	var fallback *workerLink
	for i := 0; i < n; i++ {
		l := co.links[(start+i)%n]
		if !l.isAlive() {
			continue
		}
		if l != avoid {
			return l
		}
		fallback = l
	}
	return fallback
}

// waitHealthy blocks until a worker is alive, the grace period ends, or
// ctx is cancelled.
func (co *Coordinator) waitHealthy(ctx context.Context, grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		if co.healthyCount() > 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-co.closed:
			return false
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// register adds a pending shard wait; the returned channel receives exactly
// one reply (buffered, so routing never blocks).
func (co *Coordinator) register(k pendKey, l *workerLink) chan shardReply {
	ch := make(chan shardReply, 1)
	co.mu.Lock()
	co.pending[k] = &pendEntry{ch: ch, link: l}
	co.mu.Unlock()
	return ch
}

func (co *Coordinator) unregister(k pendKey) {
	co.mu.Lock()
	delete(co.pending, k)
	co.mu.Unlock()
}

// route delivers a worker's reply to the waiting shard, if any.
func (co *Coordinator) route(k pendKey, r shardReply) {
	co.mu.Lock()
	e := co.pending[k]
	delete(co.pending, k)
	co.mu.Unlock()
	if e != nil {
		e.ch <- r
	} else {
		co.cfg.Log.Debug("cluster: stale reply dropped", "id", k.id, "shard", k.shard, "err", r.err)
	}
}

// failLink fails every pending shard assigned to l — the link died.
func (co *Coordinator) failLink(l *workerLink, err error) {
	co.mu.Lock()
	var keys []pendKey
	var chans []chan shardReply
	for k, e := range co.pending {
		if e.link == l {
			keys = append(keys, k)
			chans = append(chans, e.ch)
		}
	}
	for _, k := range keys {
		delete(co.pending, k)
	}
	co.mu.Unlock()
	for _, ch := range chans {
		ch <- shardReply{err: err, worker: l.addr}
	}
}

// workerLink is one managed worker connection: dial, handshake, read loop,
// redial on death.
type workerLink struct {
	addr string
	co   *Coordinator

	mu    sync.Mutex
	conn  *wire.Conn
	alive bool
	name  string // from the Welcome handshake
}

func (l *workerLink) isAlive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alive
}

// current returns the live conn, or nil.
func (l *workerLink) current() *wire.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.alive {
		return nil
	}
	return l.conn
}

func (l *workerLink) abort() {
	l.mu.Lock()
	c := l.conn
	l.alive = false
	l.mu.Unlock()
	if c != nil {
		c.Abort()
	}
}

// manage dials, serves, and redials the worker until the coordinator
// closes. Liveness rides on read deadlines: the worker heartbeats every
// HeartbeatEvery, so a DeadAfter silence means the worker (or the path to
// it) is gone.
func (l *workerLink) manage() {
	cfg := l.co.cfg
	for {
		select {
		case <-l.co.closed:
			return
		default:
		}
		conn, err := l.dial()
		if err != nil {
			cfg.Log.Debug("cluster: dial failed", "worker", l.addr, "err", err)
			select {
			case <-l.co.closed:
				return
			case <-time.After(cfg.RedialBackoff):
			}
			continue
		}
		l.serve(conn)
		l.co.failLink(l, fmt.Errorf("cluster: worker %s connection lost", l.addr))
		select {
		case <-l.co.closed:
			return
		case <-time.After(cfg.RedialBackoff):
		}
	}
}

// dial connects and completes the Hello/Welcome handshake.
func (l *workerLink) dial() (*wire.Conn, error) {
	cfg := l.co.cfg
	nc, err := net.DialTimeout("tcp", l.addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc, wire.DefaultSendQueue)
	if cfg.Faults.Injector != nil {
		fc := cfg.Faults
		if fc.Label == "" {
			fc.Label = l.addr
		}
		conn = conn.SetFaults(fc)
	}
	fail := func(err error) (*wire.Conn, error) {
		conn.Abort()
		return nil, err
	}
	if err := conn.SendEnvelope(wire.TypeHello, wire.Hello{From: "coordinator", Version: wire.Version}); err != nil {
		return fail(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(cfg.DialTimeout))
	f, err := conn.Recv()
	if err != nil {
		return fail(fmt.Errorf("cluster: handshake read: %w", err))
	}
	var w wire.Welcome
	if f.Type != wire.TypeWelcome || wire.DecodeInto(f, &w) != nil {
		return fail(fmt.Errorf("cluster: %s: bad welcome", l.addr))
	}
	if err := wire.CheckVersion(w.Version); err != nil {
		return fail(fmt.Errorf("cluster: %s: %w", l.addr, err))
	}
	// Close marks the coordinator closing before it aborts the links, so a
	// handshake that completes after its abort sees the mark here and does
	// not publish a connection nobody is left to sever.
	l.mu.Lock()
	if l.co.closing.Load() {
		l.mu.Unlock()
		return fail(fmt.Errorf("cluster: %s: coordinator closed", l.addr))
	}
	l.conn, l.alive, l.name = conn, true, w.Worker
	l.mu.Unlock()
	cfg.Log.Info("cluster: worker connected", "worker", l.addr, "name", w.Worker)
	return conn, nil
}

// serve routes incoming frames until the connection dies.
func (l *workerLink) serve(conn *wire.Conn) {
	cfg := l.co.cfg
	defer func() {
		l.mu.Lock()
		l.alive = false
		l.mu.Unlock()
		conn.Abort()
		cfg.Log.Warn("cluster: worker disconnected", "worker", l.addr)
	}()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(cfg.DeadAfter))
		f, err := conn.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeHeartbeat:
			// The read deadline reset above is the liveness bookkeeping.
		case wire.TypeShardResult:
			res, data, err := wire.DecodeResult(f)
			if err != nil {
				cfg.Log.Warn("cluster: undecodable result", "worker", l.addr, "err", err)
				continue
			}
			l.co.route(pendKey{res.ID, res.Shard}, shardReply{res: res, data: data, worker: l.addr})
		case wire.TypeShardError:
			var se wire.ShardError
			if err := wire.DecodeInto(f, &se); err != nil {
				continue
			}
			l.co.route(pendKey{se.ID, se.Shard}, shardReply{
				err:       fmt.Errorf("cluster: worker %s: %s", l.addr, se.Msg),
				cancelled: se.Cancelled,
				worker:    l.addr,
			})
		case wire.TypeGoodbye:
			return
		default:
			cfg.Log.Warn("cluster: unexpected frame", "worker", l.addr, "type", f.Type.String())
		}
	}
}

// shard is one channel slice of a request, in window-relative coordinates.
type shard struct {
	idx    int
	lo, hi int // window-relative channel range
}

// outcome is the terminal fate of one shard.
type outcome struct {
	sh           shard
	res          wire.ShardResult
	data         []float64
	worker       string
	err          error
	cancelled    bool
	redispatches int
}

// Run executes a distributed request: partition into shards, dispatch,
// gather, merge. Cancellation of ctx poisons remote shards via cancel
// frames; worker death re-dispatches or (under FailDegrade) masks. When
// ctx carries a request trace, the whole run — dispatches, redispatches,
// degrade decisions, and the workers' shipped-back fragments — lands in
// it as one cross-process span tree.
func (co *Coordinator) Run(ctx context.Context, req Request) (*Result, error) {
	if req.Op != OpRead {
		if req.Params == nil {
			req.Params = &req.LocalSimi // the pinned spelling, see Request
		}
		req.Op = Op(req.Params.Op())
	}
	ctx, sp := trace.Start(ctx, "cluster.run")
	if sp != nil {
		sp.SetAttr("op", string(req.Op))
	}
	res, err := co.run(ctx, req)
	if sp != nil && res != nil {
		sp.SetAttrInt("shards", int64(res.Shards))
		sp.SetAttrInt("workers", int64(res.Workers))
		sp.SetAttrInt("redispatched", int64(res.Redispatched))
		sp.SetAttrInt("degraded_shards", int64(res.DegradedShards))
	}
	sp.EndErr(err)
	return res, err
}

func (co *Coordinator) run(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	if req.View == nil {
		return nil, fmt.Errorf("cluster: request has no view")
	}
	files, err := filesOf(req.View)
	if err != nil {
		return nil, err
	}
	winChLo, winChHi, winT0, winT1 := req.View.Window()
	width, wantSamples := winChHi-winChLo, winT1-winT0
	// tmpl is what every shard's frame shares; a read is the whole of it.
	tmpl := wire.ShardRequest{
		ID: co.nextID.Add(1), Op: string(req.Op), Files: files,
		WinChLo: winChLo, WinChHi: winChHi, T0: winT0, T1: winT1,
	}
	if req.Op != OpRead {
		// The analysis is bounded against the window here, before any shard is
		// cut; workers bound it again against what they are sent.
		w, err := workloadOf(req.Params, width, wantSamples)
		if err != nil {
			return nil, err
		}
		tmpl.Halo, wantSamples = w.Spec.GhostChannels, w.OutSamples(wantSamples)
		if tmpl.Params, err = json.Marshal(req.Params); err != nil {
			return nil, fmt.Errorf("cluster: encode %s parameters: %w", req.Op, err)
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		tmpl.DeadlineUnixNano = dl.UnixNano()
	}
	if !co.waitHealthy(ctx, co.cfg.DialTimeout) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrNoWorkers
	}

	nshards := req.Shards
	if nshards <= 0 {
		nshards = shardsPerWorker * max(co.healthyCount(), 1)
	}
	nshards = min(max(nshards, 1), width)

	outcomes := make([]outcome, nshards)
	var wg sync.WaitGroup
	for i := 0; i < nshards; i++ {
		lo, hi := dass.Partition(width, nshards, i)
		sh := shard{idx: i, lo: lo, hi: hi}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[sh.idx] = co.runShard(ctx, tmpl, sh)
		}()
	}
	wg.Wait()

	// The workers run under the request's own deadline, shipped on the wire,
	// and their timers can fire a moment before this side's does: once the
	// deadline has passed, shards cancelled remotely are the request
	// expiring, not shards lost.
	err = ctx.Err()
	if dl, ok := ctx.Deadline(); err == nil && ok && !time.Now().Before(dl) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		return nil, err
	}

	// Tally and merge.
	res := &Result{Shards: nshards}
	var tr pfs.Trace
	var gaps []dass.Gap
	out := dasf.NewArray2D(width, wantSamples)
	workers := map[string]bool{}
	ok := 0
	for _, oc := range outcomes {
		res.Redispatched += oc.redispatches
		if oc.err == nil && oc.res.Samples != wantSamples {
			oc.err = fmt.Errorf("cluster: shard %d returned %d samples, want %d",
				oc.sh.idx, oc.res.Samples, wantSamples)
		}
		if oc.err != nil {
			if oc.cancelled && ctx.Err() == nil {
				// A worker reported cancellation we didn't ask for — its
				// deadline fired. Treat as a lost shard.
				co.m.outcome("cancelled")
			}
			if co.cfg.FailPolicy == dass.FailAbort {
				co.m.outcome("failed")
				return nil, fmt.Errorf("cluster: shard %d/%d lost after %d attempts: %w",
					oc.sh.idx, nshards, co.cfg.MaxAttempts, oc.err)
			}
			// Degrade: NaN-mask the shard and account the loss exactly
			// like a failed local rank. The decision is itself a span, so
			// the trace shows which shard was masked and why.
			co.m.outcome("degraded")
			_, gsp := trace.Start(ctx, "cluster.degrade")
			if gsp != nil {
				gsp.SetAttrInt("shard", int64(oc.sh.idx))
				gsp.SetAttr("error", oc.err.Error())
				gsp.SetStatus("degraded")
			}
			gsp.End()
			res.DegradedShards++
			nan := math.NaN()
			for c := oc.sh.lo; c < oc.sh.hi; c++ {
				row := out.Row(c)
				for t := range row {
					row[t] = nan
				}
			}
			shGaps := dass.ShardGaps(req.View, oc.sh.lo, oc.sh.hi)
			for _, g := range shGaps {
				tr.MaskedSamples += g.Samples()
			}
			gaps = append(gaps, shGaps...)
			continue
		}
		co.m.outcome("done")
		ok++
		workers[oc.worker] = true
		for c := 0; c < oc.res.Channels; c++ {
			copy(out.Row(oc.sh.lo+c), oc.data[c*oc.res.Samples:(c+1)*oc.res.Samples])
		}
		t := oc.res.Trace
		tr.Opens += t.Opens
		tr.Reads += t.Reads
		tr.BytesRead += t.BytesRead
		tr.Retries += t.Retries
		tr.Faults += t.Faults
		tr.SlowReads += t.SlowReads
		tr.MaskedSamples += t.Masked
		// Worker gaps arrive in absolute channels; the quality report
		// wants window-relative.
		for _, g := range oc.res.Gaps {
			lo := max(g.ChLo-winChLo, 0)
			hi := min(g.ChHi-winChLo, width)
			if lo >= hi {
				continue
			}
			gaps = append(gaps, dass.Gap{
				Member: g.Member, File: g.File,
				ChLo: lo, ChHi: hi, TLo: g.TLo, THi: g.THi,
			})
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("%w: %d/%d shards failed", ErrAllShardsLost, nshards, nshards)
	}
	tr.Processes = len(workers)
	res.Data = out
	res.Workers = len(workers)
	res.Trace = tr
	res.Quality = dass.BuildQuality(req.View, gaps, tr)
	res.Wall = time.Since(start)
	return res, nil
}

// runShard drives one shard to a terminal outcome: dispatch, wait, and on
// worker failure re-dispatch to a healthy peer up to MaxAttempts times.
func (co *Coordinator) runShard(ctx context.Context, tmpl wire.ShardRequest, sh shard) outcome {
	tmpl.Shard, tmpl.ChLo, tmpl.ChHi = sh.idx, tmpl.WinChLo+sh.lo, tmpl.WinChLo+sh.hi
	id := tmpl.ID
	oc := outcome{sh: sh}
	var last *workerLink
	for attempt := 0; attempt < co.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			oc.err, oc.cancelled = err, true
			return oc
		}
		l := co.pickLink(last)
		if l == nil {
			if !co.waitHealthy(ctx, co.cfg.RedialBackoff+co.cfg.DialTimeout) {
				oc.err = ErrNoWorkers
				if ctx.Err() != nil {
					oc.err, oc.cancelled = ctx.Err(), true
				}
				return oc
			}
			l = co.pickLink(last)
			if l == nil {
				oc.err = ErrNoWorkers
				return oc
			}
		}
		if attempt > 0 {
			oc.redispatches++
			co.m.outcome("retried")
			co.cfg.Log.Info("cluster: re-dispatching shard",
				"id", id, "shard", sh.idx, "attempt", attempt+1, "worker", l.addr,
				"trace_id", trace.IDFrom(ctx))
		}
		last = l
		reply, sent := co.attemptShard(ctx, tmpl, attempt, l)
		if !sent {
			continue // link raced to death; try another
		}
		if reply.err == nil {
			// Clear any earlier attempt's failure — the shard made it.
			oc.res, oc.data, oc.worker, oc.err = reply.res, reply.data, reply.worker, nil
			return oc
		}
		if reply.cancelled && ctx.Err() != nil {
			oc.err, oc.cancelled = ctx.Err(), true
			return oc
		}
		co.cfg.Log.Debug("cluster: shard attempt failed",
			"id", id, "shard", sh.idx, "attempt", attempt, "err", reply.err)
		oc.err = reply.err
	}
	return oc
}

// attemptShard runs one dispatch attempt under its own trace span: the
// span carries worker/shard/attempt, a redispatch marker on attempts
// after the first, and — on success — the worker's shipped-back span
// fragment grafted under it.
func (co *Coordinator) attemptShard(ctx context.Context, wreq wire.ShardRequest, attempt int, l *workerLink) (reply shardReply, sent bool) {
	dctx, dsp := trace.Start(ctx, "cluster.dispatch")
	defer func() {
		if !sent {
			dsp.SetStatus("error")
			dsp.SetAttr("error", "link died before send")
		}
		dsp.EndErr(reply.err)
	}()
	if dsp != nil {
		dsp.SetAttrInt("shard", int64(wreq.Shard))
		dsp.SetAttrInt("attempt", int64(attempt+1))
		dsp.SetAttr("worker", l.addr)
		if attempt > 0 {
			dsp.SetAttr("redispatch", "true")
		}
	}
	reply, sent = co.dispatch(dctx, wreq, l)
	if sent && reply.err == nil {
		trace.Merge(dctx, fromWireSpans(reply.res.Spans))
	}
	return reply, sent
}

// dispatch sends one shard request on l and waits for its reply, the
// context, or the link's death. sent=false means the frame never left.
func (co *Coordinator) dispatch(ctx context.Context, wreq wire.ShardRequest, l *workerLink) (shardReply, bool) {
	conn := l.current()
	if conn == nil {
		return shardReply{}, false
	}
	// Propagate the request trace: the worker parents its fragment under
	// this attempt's dispatch span (the context's current span).
	wreq.TraceID = string(trace.IDFrom(ctx))
	wreq.ParentSpan = trace.SpanFrom(ctx)
	k := pendKey{wreq.ID, wreq.Shard}
	ch := co.register(k, l)
	t0 := time.Now()
	if err := conn.SendEnvelope(wire.TypeShardRequest, wreq); err != nil {
		co.unregister(k)
		return shardReply{}, false
	}
	co.m.dispatched()
	var timeout <-chan time.Time
	if co.cfg.ShardTimeout > 0 {
		tm := time.NewTimer(co.cfg.ShardTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case r := <-ch:
		co.m.observeLatency(l.addr, time.Since(t0))
		return r, true
	case <-timeout:
		co.unregister(k)
		// No cancel frame here: Cancel is request-scoped and would poison
		// this request's other shards legitimately running on the same
		// worker. The stale reply, if it ever lands, routes to nothing.
		return shardReply{
			err:    fmt.Errorf("cluster: shard %d reply timed out on %s", wreq.Shard, l.addr),
			worker: l.addr,
		}, true
	case <-ctx.Done():
		co.unregister(k)
		// Poison the remote shard: best-effort cancel frame. The worker
		// also holds the absolute deadline, so even a lost cancel frame
		// only delays the stop until the deadline.
		if c := l.current(); c != nil {
			_ = c.SendEnvelope(wire.TypeCancel, wire.Cancel{ID: wreq.ID})
		}
		return shardReply{err: ctx.Err(), cancelled: true, worker: l.addr}, true
	case <-co.closed:
		co.unregister(k)
		return shardReply{err: fmt.Errorf("cluster: coordinator closed"), worker: l.addr}, true
	}
}
