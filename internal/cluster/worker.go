package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/pfs"
	"dassa/internal/scores"
	"dassa/internal/wire"
)

// WorkerConfig sizes a shard worker. Zero values choose sane defaults.
type WorkerConfig struct {
	// Name identifies the worker in handshakes and logs (default the
	// listener address).
	Name string
	// Cores is the per-shard compute parallelism (default 4, like the
	// in-process engine).
	Cores int
	// HeartbeatEvery is the liveness beacon period (default 1s).
	HeartbeatEvery time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight shards
	// (default 10s).
	DrainTimeout time.Duration
	// Log receives structured worker events (default discard).
	Log *slog.Logger
	// Faults, when its Injector is non-nil, injects wire-layer failures on
	// every accepted connection — drops, delays and partial writes for
	// chaos tests.
	Faults wire.FaultConfig
}

// scoreBytes bounds a worker's score store, dassd's default store size.
const scoreBytes = 4 << 20

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	c.Log = obs.OrNop(c.Log)
	return c
}

// Worker serves shard requests by running the existing storage/compute
// pipeline over each request's slice of the file set. One worker handles
// many coordinator connections; each connection multiplexes many shards.
type Worker struct {
	cfg WorkerConfig
	ln  net.Listener
	// exec runs one shard: executeShard over the worker's score store,
	// except in tests that need a job to misbehave.
	exec func(ctx context.Context, req wire.ShardRequest, cores int) (wire.ShardResult, []float64, error)
	// scores holds the detector cells of the shards this worker computed,
	// so a shard asked again computes only what it lacks (internal/scores).
	scores *scores.LRU

	conns    sync.WaitGroup // connection handlers
	jobs     sync.WaitGroup // in-flight shard executions
	inFlight atomic.Int64
	draining atomic.Bool
	closed   atomic.Bool

	activeMu sync.Mutex
	active   map[*wire.Conn]bool
}

// NewWorker creates a worker; call Serve to start accepting.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg.withDefaults(), scores: scores.NewLRU(scoreBytes)}
	w.exec = func(ctx context.Context, req wire.ShardRequest, cores int) (wire.ShardResult, []float64, error) {
		return executeShard(ctx, req, cores, w.scores)
	}
	return w
}

// ScoreStats snapshots the worker's score store.
func (w *Worker) ScoreStats() scores.LRUStats { return w.scores.Stats() }

// InFlight returns how many shards are currently executing.
func (w *Worker) InFlight() int { return int(w.inFlight.Load()) }

// Serve accepts coordinator connections on ln until Drain (or a listener
// error) stops it. It returns nil on a clean drain.
func (w *Worker) Serve(ln net.Listener) error {
	w.activeMu.Lock()
	w.ln = ln
	if w.cfg.Name == "" {
		w.cfg.Name = ln.Addr().String()
	}
	stopped := w.closed.Load() || w.draining.Load()
	w.activeMu.Unlock()
	if stopped {
		ln.Close()
		return nil
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if w.draining.Load() || w.closed.Load() {
				return nil
			}
			return err
		}
		w.conns.Add(1)
		go func() {
			defer w.conns.Done()
			w.handle(nc)
		}()
	}
}

// Drain stops the worker gracefully: the listener closes, new shard
// requests are refused with a "draining" error, and in-flight shards get
// up to DrainTimeout to finish (their results still flow back before the
// connections close). It is the SIGTERM path of cmd/dassw.
func (w *Worker) Drain() {
	if !w.draining.CompareAndSwap(false, true) {
		return
	}
	w.closeListener()
	done := make(chan struct{})
	go func() { w.jobs.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(w.cfg.DrainTimeout):
		w.cfg.Log.Warn("cluster: drain timeout, abandoning in-flight shards")
	}
	// Flush queued results, then sever. Close drains the send queue;
	// Abort (via Close below) reaps anything left.
	for _, c := range w.snapshotConns() {
		_ = c.Close()
	}
	w.Close()
}

// Close stops the worker immediately: listener closed, connections
// severed, in-flight shards cancelled through their contexts (each
// handler poisons its jobs on exit).
func (w *Worker) Close() {
	if !w.closed.CompareAndSwap(false, true) {
		return
	}
	w.draining.Store(true)
	w.closeListener()
	for _, c := range w.snapshotConns() {
		c.Abort()
	}
	w.conns.Wait()
}

// closeListener closes the listener under the lock Serve sets it under, so
// a Close racing Serve's startup still stops the accept loop.
func (w *Worker) closeListener() {
	w.activeMu.Lock()
	ln := w.ln
	w.activeMu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// track registers a live connection; false means the worker is closed and
// the caller must abandon it.
func (w *Worker) track(c *wire.Conn) bool {
	w.activeMu.Lock()
	defer w.activeMu.Unlock()
	if w.closed.Load() {
		return false
	}
	if w.active == nil {
		w.active = map[*wire.Conn]bool{}
	}
	w.active[c] = true
	return true
}

func (w *Worker) untrack(c *wire.Conn) {
	w.activeMu.Lock()
	delete(w.active, c)
	w.activeMu.Unlock()
}

func (w *Worker) snapshotConns() []*wire.Conn {
	w.activeMu.Lock()
	defer w.activeMu.Unlock()
	out := make([]*wire.Conn, 0, len(w.active))
	for c := range w.active {
		out = append(out, c)
	}
	return out
}

// connState tracks one coordinator connection's in-flight jobs so cancel
// frames (and connection death) can poison them.
type connState struct {
	mu      sync.Mutex
	cancels map[uint64][]context.CancelCauseFunc // request ID → job cancels
}

func (s *connState) add(id uint64, c context.CancelCauseFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancels == nil {
		s.cancels = map[uint64][]context.CancelCauseFunc{}
	}
	s.cancels[id] = append(s.cancels[id], c)
}

func (s *connState) cancel(id uint64, cause error) {
	s.mu.Lock()
	cs := s.cancels[id]
	delete(s.cancels, id)
	s.mu.Unlock()
	for _, c := range cs {
		c(cause)
	}
}

func (s *connState) cancelAll(cause error) {
	s.mu.Lock()
	all := s.cancels
	s.cancels = nil
	s.mu.Unlock()
	for _, cs := range all {
		for _, c := range cs {
			c(cause)
		}
	}
}

// errConnDead poisons jobs whose coordinator connection died; errCancelled
// poisons jobs the coordinator cancelled explicitly.
var (
	errConnDead  = errors.New("cluster: coordinator connection lost")
	errCancelled = errors.New("cluster: request cancelled by coordinator")
)

// handle runs one coordinator connection: handshake, heartbeats out,
// requests in, shard jobs fanned out.
func (w *Worker) handle(nc net.Conn) {
	c := wire.NewConn(nc, wire.DefaultSendQueue)
	if w.cfg.Faults.Injector != nil {
		fc := w.cfg.Faults
		if fc.Label == "" {
			fc.Label = nc.RemoteAddr().String()
		}
		c = c.SetFaults(fc)
	}
	if !w.track(c) {
		c.Abort()
		return
	}
	st := &connState{}
	defer func() {
		st.cancelAll(errConnDead)
		w.untrack(c)
		c.Abort()
	}()

	// Handshake: the first frame must be a Hello.
	f, err := c.Recv()
	if err != nil || f.Type != wire.TypeHello {
		w.cfg.Log.Warn("cluster: handshake failed", "remote", nc.RemoteAddr().String(), "err", err)
		return
	}
	var hello wire.Hello
	if err := wire.DecodeInto(f, &hello); err != nil {
		w.cfg.Log.Warn("cluster: bad hello", "err", err)
		return
	}
	if err := wire.CheckVersion(hello.Version); err != nil {
		w.cfg.Log.Warn("cluster: handshake rejected", "from", hello.From, "err", err)
		return
	}
	if err := c.SendEnvelope(wire.TypeWelcome, wire.Welcome{Worker: w.cfg.Name, Version: wire.Version}); err != nil {
		return
	}
	w.cfg.Log.Info("cluster: coordinator connected", "from", hello.From)

	// Heartbeats flow until the read loop ends.
	beatsDone := make(chan struct{})
	defer close(beatsDone)
	go func() {
		t := time.NewTicker(w.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-beatsDone:
				return
			case now := <-t.C:
				hb := wire.Heartbeat{UnixNano: now.UnixNano(), InFlight: int(w.inFlight.Load())}
				if err := c.SendEnvelope(wire.TypeHeartbeat, hb); err != nil && !errors.Is(err, wire.ErrQueueFull) {
					return
				}
			}
		}
	}()

	for {
		f, err := c.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeShardRequest:
			var req wire.ShardRequest
			if err := wire.DecodeInto(f, &req); err != nil {
				w.cfg.Log.Warn("cluster: undecodable shard request", "err", err)
				continue
			}
			if w.draining.Load() {
				_ = c.SendEnvelope(wire.TypeShardError, wire.ShardError{
					ID: req.ID, Shard: req.Shard, Msg: "worker draining",
				})
				continue
			}
			w.jobs.Add(1)
			w.inFlight.Add(1)
			go func() {
				defer w.jobs.Done()
				defer w.inFlight.Add(-1)
				w.runJob(c, st, req)
			}()
		case wire.TypeCancel:
			var cn wire.Cancel
			if err := wire.DecodeInto(f, &cn); err == nil {
				st.cancel(cn.ID, errCancelled)
			}
		case wire.TypeGoodbye:
			return
		case wire.TypeHeartbeat:
			// Coordinator-side beats are allowed and ignored.
		default:
			w.cfg.Log.Warn("cluster: unexpected frame", "type", f.Type.String())
		}
	}
}

// runJob executes one shard and replies with its result or error.
func (w *Worker) runJob(c *wire.Conn, st *connState, req wire.ShardRequest) {
	// The job runs on its own goroutine, where a panic would end the
	// process: whatever a frame manages to trip costs that shard, not the
	// worker and every other coordinator's shards with it.
	defer func() {
		if p := recover(); p != nil {
			w.cfg.Log.Error("cluster: shard panicked",
				"id", req.ID, "shard", req.Shard, "trace_id", req.TraceID,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			_ = c.SendEnvelope(wire.TypeShardError, wire.ShardError{
				ID: req.ID, Shard: req.Shard, Msg: fmt.Sprintf("shard panicked: %v", p),
			})
		}
	}()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	st.add(req.ID, cancel)
	if req.DeadlineUnixNano > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithDeadline(ctx, time.Unix(0, req.DeadlineUnixNano))
		defer cancelT()
	}

	start := time.Now()
	res, data, err := w.executeTraced(ctx, req)
	if err != nil {
		cancelled := dass.IsCancellation(err) ||
			errors.Is(err, errCancelled) || errors.Is(err, errConnDead)
		w.cfg.Log.Warn("cluster: shard failed",
			"id", req.ID, "shard", req.Shard, "cancelled", cancelled,
			"trace_id", req.TraceID, "err", err)
		_ = c.SendEnvelope(wire.TypeShardError, wire.ShardError{
			ID: req.ID, Shard: req.Shard, Msg: err.Error(), Cancelled: cancelled,
		})
		return
	}
	res.ID, res.Shard = req.ID, req.Shard
	wall := time.Since(start)
	f, err := wire.EncodeResult(res, data)
	if err != nil {
		_ = c.SendEnvelope(wire.TypeShardError, wire.ShardError{
			ID: req.ID, Shard: req.Shard, Msg: fmt.Sprintf("encode result: %v", err),
		})
		return
	}
	if err := c.Send(f); err != nil {
		w.cfg.Log.Warn("cluster: result send failed",
			"id", req.ID, "shard", req.Shard, "trace_id", req.TraceID, "err", err)
	} else {
		w.cfg.Log.Info("cluster: shard done",
			"id", req.ID, "shard", req.Shard, "trace_id", req.TraceID,
			"wall_ms", wall.Milliseconds())
	}
}

// executeTraced runs executeShard under the request's trace, when it
// carries one: the worker records its fragment locally (rooted at
// "worker.shard", parented under the coordinator's dispatch span) and
// ships the spans back in the result for reassembly.
func (w *Worker) executeTraced(ctx context.Context, req wire.ShardRequest) (wire.ShardResult, []float64, error) {
	if req.TraceID == "" {
		return w.exec(ctx, req, w.cfg.Cores)
	}
	ctx, root, rem := trace.StartRemote(ctx, trace.ID(req.TraceID), w.cfg.Name, req.ParentSpan, "worker.shard")
	root.SetAttrInt("shard", int64(req.Shard))
	root.SetAttr("op", req.Op)
	res, data, err := w.exec(ctx, req, w.cfg.Cores)
	root.EndErr(err)
	if err != nil {
		return res, data, err
	}
	res.Spans = toWireSpans(rem.Spans())
	return res, data, nil
}

// executeShard runs one shard's slice of the pipeline: rebuild the view,
// subset to the shard window plus halo, run the op under FailDegrade —
// assembled from st's tiles when st is non-nil — trim halo rows, and lift
// gaps back to absolute channel coordinates.
func executeShard(ctx context.Context, req wire.ShardRequest, cores int, st *scores.LRU) (wire.ShardResult, []float64, error) {
	full, err := viewOf(req.Files)
	if err != nil {
		return wire.ShardResult{}, nil, err
	}
	nch, nt := full.Shape()
	if req.WinChLo < 0 || req.WinChHi > nch || req.ChLo < req.WinChLo || req.ChHi > req.WinChHi ||
		req.ChLo >= req.ChHi || req.T0 < 0 || req.T1 > nt || req.T0 >= req.T1 {
		return wire.ShardResult{}, nil, fmt.Errorf(
			"cluster: shard rows [%d:%d) of window [%d:%d)×[%d:%d) out of file-set bounds %d×%d",
			req.ChLo, req.ChHi, req.WinChLo, req.WinChHi, req.T0, req.T1, nch, nt)
	}
	// Halo widens the read: a negative one would put the core rows outside
	// it. The reach is clamped to the window's rows before it is added — the
	// in-process stencil clamps at the view's edge, so a shard touching it
	// must — and a huge one cannot wrap either bound. The window sits inside
	// the view, whose shape viewOf bounded: no allocation passes the cap.
	if req.Halo < 0 {
		return wire.ShardResult{}, nil, fmt.Errorf("cluster: negative shard halo %d", req.Halo)
	}
	gLo := req.ChLo - min(req.Halo, req.ChLo-req.WinChLo)
	gHi := req.ChHi + min(req.Halo, req.WinChHi-req.ChHi)
	sub, err := full.Subset(gLo, gHi, req.T0, req.T1)
	if err != nil {
		return wire.ShardResult{}, nil, err
	}
	out, tr, gaps, err := applyShard(ctx, req, sub.WithContext(ctx), cores, st)
	if err != nil {
		return wire.ShardResult{}, nil, err
	}

	// Trim halo rows: the reply carries exactly the core [ChLo, ChHi).
	coreLo := req.ChLo - gLo
	coreN := req.ChHi - req.ChLo
	data := make([]float64, coreN*out.Samples)
	for c := 0; c < coreN; c++ {
		copy(data[c*out.Samples:(c+1)*out.Samples], out.Row(coreLo+c))
	}
	res := wire.ShardResult{
		Channels: coreN,
		Samples:  out.Samples,
		Trace: wire.Trace{
			Opens: tr.Opens, Reads: tr.Reads, BytesRead: tr.BytesRead,
			Retries: tr.Retries, Faults: tr.Faults, SlowReads: tr.SlowReads,
			Masked: tr.MaskedSamples,
		},
	}
	// Lift gaps from sub-relative to absolute channels, clipped to the
	// core rows (halo losses are the neighbouring shard's to report).
	for _, g := range gaps {
		lo := max(g.ChLo+gLo, req.ChLo)
		hi := min(g.ChHi+gLo, req.ChHi)
		if lo >= hi {
			continue
		}
		res.Gaps = append(res.Gaps, wire.Gap{
			Member: g.Member, File: g.File,
			ChLo: lo, ChHi: hi, TLo: g.TLo, THi: g.THi,
		})
	}
	return res, data, nil
}

// workloadOf bounds an analysis against the nch × nt window it is to run on,
// for coordinator and worker alike: a registered name, the one Validate every
// surface uses, and a workload that reads nothing outside its rows.
func workloadOf(p detect.Params, nch, nt int) (arrayudf.Workload, error) {
	if _, ok := detect.Lookup(p.Op()); !ok {
		return arrayudf.Workload{}, fmt.Errorf("cluster: unknown op %q", p.Op())
	}
	if err := p.Validate(nch, nt); err != nil {
		return arrayudf.Workload{}, err
	}
	w := p.Workload(nt)
	if w.Prepare != nil {
		return w, fmt.Errorf("%w: %s", ErrNotShardable, p.Op())
	}
	return w, nil
}

// applyShard runs a frame's operation over the shard's sub-view under
// FailDegrade: the read itself, or an analysis on top of it — the same engine
// loop, on the same scratch-aware UDF, as an in-process /detect — with the
// engine's report normalized to (output, trace, gaps). The parameter block is
// bytes from the network: Decode, then bound. An analysis over whole member
// files is assembled from st's tiles and engine runs over what they lack.
func applyShard(ctx context.Context, req wire.ShardRequest, sub *dass.View, cores int, st *scores.LRU) (*dasf.Array2D, pfs.Trace, []dass.Gap, error) {
	if Op(req.Op) == OpRead {
		return sub.ReadPolicy(dass.FailDegrade)
	}
	p, err := detect.Decode(req.Op, req.Params)
	if err != nil {
		return nil, pfs.Trace{}, nil, err
	}
	nch, nt := sub.Shape()
	if _, err := workloadOf(p, nch, nt); err != nil {
		return nil, pfs.Trace{}, nil, err
	}
	eng := haee.New(haee.Config{Nodes: 1, CoresPerNode: cores, Mode: haee.Hybrid, FailPolicy: dass.FailDegrade})
	var tr pfs.Trace
	run := func(_ context.Context, part *dass.View) (*dasf.Array2D, *dass.QualityReport, error) {
		pch, pnt := part.Shape()
		w, err := workloadOf(p, pch, pnt)
		if err != nil {
			return nil, nil, err
		}
		rep, err := eng.Run(part, w, "")
		tr.Add(rep.ReadTrace)
		if err != nil {
			return nil, nil, err
		}
		return rep.Output, rep.Quality, nil
	}
	var entries []dass.Entry
	if st != nil {
		entries = shardEntries(req, nt)
	}
	if entries == nil {
		out, q, err := run(ctx, sub)
		if err != nil || q == nil {
			return out, tr, nil, err
		}
		return out, tr, q.Gaps, nil
	}
	m, err := scores.Compute(ctx, sub, entries, p, st, run)
	sp := trace.Current(ctx)
	sp.SetAttrInt("tiles", int64(m.Tiles))
	sp.SetAttrInt("tiles_hit", int64(m.TilesHit))
	sp.SetAttrInt("cells_computed", int64(m.CellsComputed))
	return m.Out, tr, m.Gaps, err
}

// shardEntries returns the members of a shard that spans its files whole,
// stamped by one stat each, as the score store keys them. It returns nil
// when the shard cuts its files or a member cannot be stat'd: that shard
// runs uncached and degrades or fails as it always did.
func shardEntries(req wire.ShardRequest, nt int) []dass.Entry {
	if req.T0 != 0 || req.T1 != nt {
		return nil
	}
	entries := make([]dass.Entry, len(req.Files))
	for i, f := range req.Files {
		fi, err := os.Stat(f.Path)
		if err != nil {
			return nil
		}
		entries[i] = dass.Entry{
			Path:      f.Path,
			Info:      dasf.Info{Path: f.Path, NumChannels: f.NumChannels, NumSamples: f.NumSamples},
			Timestamp: f.Timestamp, Size: fi.Size(), ModTime: fi.ModTime().UnixNano(),
		}
	}
	return entries
}
