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
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
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
	// HeartbeatEvery is the liveness beacon period (default
	// heartbeatEvery, the beat the coordinator's default DeadAfter
	// expects). No daemon sets it; it is the tests' seam for fast beats.
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

// heartbeatEvery is the one liveness clock of a cluster: a worker beats at
// this period and a coordinator declares a link dead after three beats of
// silence.
const heartbeatEvery = time.Second

// scoreBytes bounds a worker's score store, dassd's default store size.
const scoreBytes = 4 << 20

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = heartbeatEvery
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
	// exec, when set, runs a shard in place of computeShard: the tests'
	// seam for a job that misbehaves. Its values are encoded as a read's.
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
	return &Worker{cfg: cfg.withDefaults(), scores: scores.NewLRU(scoreBytes)}
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
	res, rb, err := w.executeTraced(ctx, req)
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
	f, err := rb.Frame(res)
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

// executeTraced runs the shard under the request's trace, when it carries
// one: the worker records its fragment locally (rooted at "worker.shard",
// parented under the coordinator's dispatch span) and ships the spans back
// in the result for reassembly.
func (w *Worker) executeTraced(ctx context.Context, req wire.ShardRequest) (wire.ShardResult, wire.ResultBuf, error) {
	if req.TraceID == "" {
		return w.execute(ctx, req)
	}
	ctx, root, rem := trace.StartRemote(ctx, trace.ID(req.TraceID), w.cfg.Name, req.ParentSpan, "worker.shard")
	root.SetAttrInt("shard", int64(req.Shard))
	root.SetAttr("op", req.Op)
	res, rb, err := w.execute(ctx, req)
	root.EndErr(err)
	if err != nil {
		return res, rb, err
	}
	res.Spans = rem.Spans()
	return res, rb, nil
}

// execute runs one shard over the worker's score store, or through the
// tests' exec seam when one is set.
func (w *Worker) execute(ctx context.Context, req wire.ShardRequest) (wire.ShardResult, wire.ResultBuf, error) {
	if w.exec == nil {
		return computeShard(ctx, req, w.cfg.Cores, w.scores)
	}
	res, data, err := w.exec(ctx, req, w.cfg.Cores)
	if err != nil {
		return res, wire.ResultBuf{}, err
	}
	rb, err := valuesBuf(data)
	return res, rb, err
}

// computeShard runs one shard's slice of the pipeline the way dassd runs a
// window: rebuild the view with dass.ViewOver, bound the op against the
// request window, and run it over that window keeping the shard's rows under
// FailDegrade — assembled from st's tiles when the shard spans its files
// whole — into the reply's value block. The engine reads the rows around
// them that the op reaches, clamped at the window's edges as the in-process
// stencil clamps at the view's. A read takes the shard's rows alone. Gaps
// are lifted back to absolute channel coordinates.
func computeShard(ctx context.Context, req wire.ShardRequest, cores int, st *scores.LRU) (wire.ShardResult, wire.ResultBuf, error) {
	entries := entriesOf(req.Files)
	full, err := dass.ViewOver(entries)
	if err != nil {
		return wire.ShardResult{}, wire.ResultBuf{}, err
	}
	nch, nt := full.Shape()
	if req.WinChLo < 0 || req.WinChHi > nch || req.ChLo < req.WinChLo || req.ChHi > req.WinChHi ||
		req.ChLo >= req.ChHi || req.T0 < 0 || req.T1 > nt || req.T0 >= req.T1 {
		return wire.ShardResult{}, wire.ResultBuf{}, fmt.Errorf(
			"cluster: shard rows [%d:%d) of window [%d:%d)×[%d:%d) out of file-set bounds %d×%d",
			req.ChLo, req.ChHi, req.WinChLo, req.WinChHi, req.T0, req.T1, nch, nt)
	}
	// The parameter block is bytes from the network: decode it, then bound
	// it against the request window, as the coordinator did, before the
	// engine reads around the shard's rows.
	var p detect.Params
	lo, hi, samples := req.ChLo, req.ChHi, req.T1-req.T0
	if Op(req.Op) != OpRead {
		if p, err = detect.Decode(req.Op, req.Params); err != nil {
			return wire.ShardResult{}, wire.ResultBuf{}, err
		}
		w, err := workloadOf(p, req.WinChHi-req.WinChLo, samples)
		if err != nil {
			return wire.ShardResult{}, wire.ResultBuf{}, err
		}
		lo, hi, samples = req.WinChLo, req.WinChHi, w.OutSamples(samples)
	}
	sub, err := full.Subset(lo, hi, req.T0, req.T1)
	if err != nil {
		return wire.ShardResult{}, wire.ResultBuf{}, err
	}
	// Tiles are keyed by whole member files: only an analysis over the
	// whole file set may use the store.
	if p == nil || req.T0 != 0 || req.T1 != nt || stamp(entries) == nil {
		st = nil
	}
	k := arrayudf.Cells{ChLo: req.ChLo - lo, ChHi: req.ChHi - lo, C1: samples}
	rb, tr, gaps, err := applyShard(ctx, sub.WithContext(ctx), entries, p, cores, st, k)
	if err != nil {
		return wire.ShardResult{}, wire.ResultBuf{}, err
	}

	res := wire.ShardResult{
		Channels: req.ChHi - req.ChLo,
		Samples:  samples,
		Trace: wire.Trace{
			Opens: tr.Opens, Reads: tr.Reads, BytesRead: tr.BytesRead,
			Retries: tr.Retries, Faults: tr.Faults, SlowReads: tr.SlowReads,
			Masked: tr.MaskedSamples,
		},
	}
	// Lift gaps from sub-relative to absolute channels, clipped to the
	// shard's rows (losses in the rows around them are the neighbouring
	// shard's to report).
	for _, g := range gaps {
		gLo, gHi := max(g.ChLo+lo, req.ChLo), min(g.ChHi+lo, req.ChHi)
		if gLo >= gHi {
			continue
		}
		res.Gaps = append(res.Gaps, wire.Gap{
			Member: g.Member, File: g.File,
			ChLo: gLo, ChHi: gHi, TLo: g.TLo, THi: g.THi,
		})
	}
	return res, rb, nil
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

// applyShard runs the shard's sub-view under FailDegrade and returns the
// rectangle k of its output in a result buffer: the read itself when p is
// nil (k is then the whole sub-view), else p through core.Framework.RunCells,
// as an in-process /detect runs it, with the runs' reports normalized to
// (values, trace, gaps). scores.Compute writes the rows straight into the
// buffer from st's tiles and runs over what they lack (a nil st: one run).
// Before a run sizes a block from the frame's member shapes, they are
// checked against the files (checkShapes); a shard served wholly from tiles
// reads nothing.
func applyShard(ctx context.Context, sub *dass.View, entries []dass.Entry, p detect.Params, cores int, st *scores.LRU, k arrayudf.Cells) (wire.ResultBuf, pfs.Trace, []dass.Gap, error) {
	var tr pfs.Trace
	if p == nil {
		if err := checkShapes(ctx, entries); err != nil {
			return wire.ResultBuf{}, tr, nil, err
		}
		out, tr, gaps, err := sub.ReadPolicy(dass.FailDegrade)
		if err != nil {
			return wire.ResultBuf{}, tr, nil, err
		}
		rb, err := valuesBuf(out.Data)
		return rb, tr, gaps, err
	}
	fw := core.New(core.Config{CoresPerNode: cores, FailPolicy: dass.FailDegrade})
	checked := false
	run := func(ctx context.Context, part *dass.View, k arrayudf.Cells) (*dasf.Array2D, *dass.QualityReport, error) {
		if !checked {
			if err := checkShapes(ctx, entries); err != nil {
				return nil, nil, err
			}
			checked = true
		}
		out, rep, err := fw.RunCells(part.WithContext(ctx), p, k)
		tr.Add(rep.ReadTrace)
		return out, rep.Quality, err
	}
	rb, err := wire.NewResultBuf((k.ChHi - k.ChLo) * k.C1)
	if err != nil {
		return rb, tr, nil, err
	}
	m, err := scores.Compute(ctx, sub, entries, k.ChLo, k.ChHi, p, st, run, func(c, c0 int, vals []float64) {
		wire.PutValues(rb.Values[8*(c*k.C1+c0):], vals)
	})
	sp := trace.Current(ctx)
	sp.SetAttrInt("tiles", int64(m.Tiles))
	sp.SetAttrInt("tiles_hit", int64(m.TilesHit))
	sp.SetAttrInt("sub_runs", int64(m.SubRuns))
	sp.SetAttrInt("cells_computed", int64(m.CellsComputed))
	sp.SetAttrInt("cells_kept", int64(m.CellsKept))
	return rb, tr, m.Gaps, err
}

// valuesBuf encodes data into a result buffer.
func valuesBuf(data []float64) (wire.ResultBuf, error) {
	rb, err := wire.NewResultBuf(len(data))
	if err == nil {
		wire.PutValues(rb.Values, data)
	}
	return rb, err
}

// checkShapes compares each member's declared channel and sample counts
// with its file header, one header read each, before a cold run sizes a
// block from the frame's numbers (DESIGN.md §15): a member declared longer
// or wider than its file would size the block past what the files hold, and
// a longer one shifts every later member's samples. A header that cannot be
// read is left to the read, which degrades that member as it always did.
func checkShapes(ctx context.Context, entries []dass.Entry) error {
	for _, e := range entries {
		info, _, err := dasf.ReadInfoContext(ctx, e.Path)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if info.NumSamples != e.Info.NumSamples {
			return fmt.Errorf("cluster: %s is declared %d samples long, its header says %d",
				e.Path, e.Info.NumSamples, info.NumSamples)
		}
		if info.NumChannels != e.Info.NumChannels {
			return fmt.Errorf("cluster: %s is declared %d channels wide, its header says %d",
				e.Path, e.Info.NumChannels, info.NumChannels)
		}
	}
	return nil
}

// stamp fills in each member's size and modification time, one stat each,
// as the score store keys them. It returns nil when a member cannot be
// stat'd: that shard runs uncached and degrades or fails as it always did.
func stamp(entries []dass.Entry) []dass.Entry {
	for i := range entries {
		fi, err := os.Stat(entries[i].Path)
		if err != nil {
			return nil
		}
		entries[i].Size, entries[i].ModTime = fi.Size(), fi.ModTime().UnixNano()
	}
	return entries
}
