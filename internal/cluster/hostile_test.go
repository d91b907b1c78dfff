package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/obs"
	"dassa/internal/scores"
	"dassa/internal/testutil/leakcheck"
	"dassa/internal/wire"
)

// A ShardRequest is bytes from the network: whatever it declares, the worker
// answers with a ShardError and keeps serving. These tests send the frames a
// coordinator never would.

// TestExecuteShardRejectsHostileFrames tables the frames whose numbers used
// to reach an index or an allocation unchecked. The frame carries no halo:
// the engine takes the reach from the op the worker decodes, so a negative or
// huge one cannot be sent.
func TestExecuteShardRejectsHostileFrames(t *testing.T) {
	v, _ := makeView(t, 8, 2)
	files, err := filesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	good := wire.ShardRequest{ID: 1, Op: string(OpRead), Files: files, ChLo: 2, ChHi: 6, WinChHi: nch, T0: 0, T1: nt}
	st := scores.NewLRU(scoreBytes) // a worker's store, as every shard runs
	withFiles := func(mutate func(fs []wire.FileSpec)) []wire.FileSpec {
		fs := append([]wire.FileSpec(nil), files...)
		mutate(fs)
		return fs
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *wire.ShardRequest)
		reject bool
	}{
		{"negative channel", func(r *wire.ShardRequest) { r.ChLo = -1 }, true},
		{"channels past the view", func(r *wire.ShardRequest) { r.ChHi = nch + 1 }, true},
		{"inverted time window", func(r *wire.ShardRequest) { r.T0, r.T1 = 10, 10 }, true},
		{"no files", func(r *wire.ShardRequest) { r.Files = nil }, true},
		{"zero-sample member", func(r *wire.ShardRequest) {
			r.Files = withFiles(func(fs []wire.FileSpec) { fs[1].NumSamples = 0 })
		}, true},
		{"negative-sample member", func(r *wire.ShardRequest) {
			r.Files = withFiles(func(fs []wire.FileSpec) { fs[0].NumSamples = -nt })
		}, true},
		{"negative channel count", func(r *wire.ShardRequest) {
			r.Files = withFiles(func(fs []wire.FileSpec) { fs[0].NumChannels, fs[1].NumChannels = -8, -8 })
		}, true},
		{"sample counts that wrap when summed", func(r *wire.ShardRequest) {
			r.Files = withFiles(func(fs []wire.FileSpec) { fs[0].NumSamples, fs[1].NumSamples = math.MaxInt, math.MaxInt })
			r.T1 = 8
		}, true},
		{"a shape past the element cap", func(r *wire.ShardRequest) {
			r.Files = withFiles(func(fs []wire.FileSpec) {
				fs[0].NumChannels, fs[1].NumChannels = 1<<20, 1<<20
				fs[0].NumSamples, fs[1].NumSamples = 1<<20, 1<<20
			})
			r.ChLo, r.ChHi, r.T1 = 0, 1<<20, 1<<21
		}, true},
		{"single file past the element cap", func(r *wire.ShardRequest) {
			r.Files = []wire.FileSpec{{Path: files[0].Path, NumChannels: 1 << 16, NumSamples: 1 << 20}}
			r.ChLo, r.ChHi, r.T1 = 0, 1<<16, 1<<20
		}, true},
		{"more channels declared than the files hold", func(r *wire.ShardRequest) {
			r.Files = withFiles(func(fs []wire.FileSpec) { fs[0].NumChannels, fs[1].NumChannels = 2*nch, 2*nch })
			r.ChLo, r.ChHi, r.WinChHi = 0, 2*nch, 2*nch
		}, true},
		{"window past the view", func(r *wire.ShardRequest) { r.WinChHi = nch + 1 }, true},
		{"negative window", func(r *wire.ShardRequest) { r.WinChLo = -1 }, true},
		{"shard rows below their window", func(r *wire.ShardRequest) { r.WinChLo = 3 }, true},
		{"shard rows above their window", func(r *wire.ShardRequest) { r.WinChHi = 5 }, true},
		{"no window at all", func(r *wire.ShardRequest) { r.WinChLo, r.WinChHi = 0, 0 }, true},
	} {
		simi := shardFrame(t, &detect.LocalSimiParams{M: 3, K: 1, L: 1, Stride: 4}, v, 2, 6)
		for _, op := range []Op{OpRead, Op(simi.Op)} {
			req := good
			if op != OpRead {
				req.Op, req.Params = simi.Op, simi.Params
			}
			tc.mutate(&req)
			res, data, err := executeShard(context.Background(), req, 2, st)
			if tc.reject && err == nil {
				t.Errorf("%s (%s): accepted, %d×%d", tc.name, op, res.Channels, res.Samples)
			}
			if !tc.reject {
				if err != nil {
					t.Errorf("%s (%s): %v", tc.name, op, err)
				} else if len(data) != res.Channels*res.Samples || res.Channels != req.ChHi-req.ChLo {
					t.Errorf("%s (%s): %d values for a %d×%d reply to rows [%d,%d)", tc.name, op, len(data), res.Channels, res.Samples, req.ChLo, req.ChHi)
				}
			}
		}
	}
	if st.Stats().Misses == 0 {
		t.Error("no frame reached the score store")
	}
	// The shape check runs only before a block is sized: a shard served
	// wholly from tiles opens no file, not even for a header.
	simi := shardFrame(t, &detect.LocalSimiParams{M: 3, K: 1, L: 1, Stride: 4}, v, 2, 6)
	opens := obs.Default().Counter("dassa_dasf_opens_total", "DASF files opened (metadata parses included)")
	for _, warm := range []bool{false, true} {
		before := opens.Value()
		if _, _, err := executeShard(context.Background(), simi, 2, st); err != nil {
			t.Fatal(err)
		}
		if n := opens.Value() - before; warm != (n == 0) {
			t.Errorf("warm=%v: the shard opened %d files", warm, n)
		}
	}
}

// TestExecuteShardBoundsDetectorParams: the detector parameters of a frame
// are bounded against the window the shard runs on before they size
// anything. M = 3e9 used to reach the first edge cell's 144 GB borrow and end
// dassw with a runtime out-of-memory throw no recover catches; LTA did the
// same through STA/LTA's edge buffer. The worker bounds a frame through the
// one Validate every surface uses, so the table is a property over the
// registry: for every shardable op the frame at its defaults runs, and every
// parameter it declares, set to a size no machine has, is refused — as are
// the geometries that only fail against the shard's own window, and a
// parameter block that is not the op's.
func TestExecuteShardBoundsDetectorParams(t *testing.T) {
	v, rate := makeView(t, 8, 2)
	_, nt := v.Shape()
	st := scores.NewLRU(scoreBytes) // a worker's store, as every shard runs
	refused := func(name string, req wire.ShardRequest) {
		t.Helper()
		if res, _, err := executeShard(context.Background(), req, 2, st); !errors.Is(err, detect.ErrBadParams) {
			t.Errorf("%s (%s %s): accepted as %d×%d, err %v", name, req.Op, req.Params, res.Channels, res.Samples, err)
		}
	}
	shardable := 0
	for _, op := range detect.Ops() {
		p := op.Default(rate, nt)
		if p.Workload(nt).Prepare != nil {
			continue
		}
		shardable++
		good := shardFrame(t, p, v, 2, 6)
		if _, _, err := executeShard(context.Background(), good, 2, st); err != nil {
			t.Fatalf("the %s frame at its defaults: %v", op.Name, err)
		}
		for _, f := range detect.Fields(p) {
			for _, huge := range []string{"3000000000", strconv.Itoa(math.MaxInt)} {
				q := op.Default(rate, nt)
				if err := detect.Set(q, f.Key, huge); err != nil {
					t.Fatal(err)
				}
				refused(f.Key+" larger than memory", shardFrame(t, q, v, 2, 6))
			}
		}
		for name, raw := range map[string]string{
			"not JSON":            `{"m":`,
			"not an object":       `[1,2,3]`,
			"an unknown field":    strings.Replace(string(good.Params), "{", `{"window_of_opportunity":1,`, 1),
			"trailing bytes":      string(good.Params) + `{}`,
			"no parameters":       ``,
			"every field missing": `{}`,
		} {
			req := good
			req.Params = json.RawMessage(raw)
			refused(name, req)
		}
	}
	if shardable < 2 {
		t.Fatalf("%d shardable ops registered, want local similarity and STA/LTA at least", shardable)
	}

	// Geometries that fit the request's window but not the shard's, and sums
	// that wrap.
	simi := func(m, k, l, stride int) detect.Params {
		return &detect.LocalSimiParams{M: m, K: k, L: l, Stride: stride}
	}
	stalta := func(sta, lta, stride int) detect.Params {
		return &detect.STALTAParams{STASamples: sta, LTASamples: lta, Stride: stride}
	}
	for _, tc := range []struct {
		name   string
		p      detect.Params
		lo, hi int
	}{
		{"M+L wrapping", simi(math.MaxInt, 1, math.MaxInt, 4), 2, 6},
		{"lag scan one sample past the window", simi(3, 1, (nt-1)/2-3+1, 4), 2, 6},
		{"negative M", simi(math.MinInt, 1, 1, 4), 2, 6},
		{"LTA one sample past the window", stalta(2, nt+1, 4), 2, 6},
		{"STA and LTA past the window", stalta(math.MaxInt-1, math.MaxInt, 4), 2, 6},
	} {
		refused(tc.name, shardFrame(t, tc.p, v, tc.lo, tc.hi))
	}
	swapped := shardFrame(t, simi(3, 1, 1, 4), v, 2, 6)
	swapped.Op = detect.STALTAParams{}.Op()
	refused("another op's parameter block", swapped)
	unknown := shardFrame(t, simi(3, 1, 1, 4), v, 2, 6)
	unknown.Op = "never-registered"
	refused("an unregistered op", unknown)
}

// shardClient is a coordinator reduced to its socket: handshake, then raw
// frames in and replies out.
type shardClient struct {
	t *testing.T
	c *wire.Conn
}

func dialWorker(t *testing.T, addr string) *shardClient {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc, 0)
	t.Cleanup(c.Abort)
	if err := c.SendEnvelope(wire.TypeHello, wire.Hello{From: "hostile-test", Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	sc := &shardClient{t: t, c: c}
	if f := sc.next(); f.Type != wire.TypeWelcome {
		t.Fatalf("handshake answered with %s", f.Type)
	}
	return sc
}

// next returns the next frame that is not a heartbeat.
func (sc *shardClient) next() wire.Frame {
	sc.t.Helper()
	for {
		if err := sc.c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			sc.t.Fatal(err)
		}
		f, err := sc.c.Recv()
		if err != nil {
			sc.t.Fatalf("worker connection: %v", err)
		}
		if f.Type != wire.TypeHeartbeat {
			return f
		}
	}
}

// wantError sends req and requires a ShardError naming it.
func (sc *shardClient) wantError(req wire.ShardRequest, msgPart string) {
	sc.t.Helper()
	if err := sc.c.SendEnvelope(wire.TypeShardRequest, req); err != nil {
		sc.t.Fatal(err)
	}
	f := sc.next()
	var se wire.ShardError
	if f.Type != wire.TypeShardError || wire.DecodeInto(f, &se) != nil {
		sc.t.Fatalf("request %d answered with %s, want a ShardError", req.ID, f.Type)
	}
	if se.ID != req.ID || !strings.Contains(se.Msg, msgPart) {
		sc.t.Fatalf("request %d: ShardError %+v, want id %d and %q", req.ID, se, req.ID, msgPart)
	}
}

// wantResult sends req and requires a ShardResult equal to the local read.
func (sc *shardClient) wantResult(req wire.ShardRequest, v *dass.View) {
	sc.t.Helper()
	if err := sc.c.SendEnvelope(wire.TypeShardRequest, req); err != nil {
		sc.t.Fatal(err)
	}
	f := sc.next()
	if f.Type != wire.TypeShardResult {
		sc.t.Fatalf("request %d answered with %s, want a ShardResult", req.ID, f.Type)
	}
	res, data, err := wire.DecodeResult(f)
	if err != nil || res.ID != req.ID {
		sc.t.Fatalf("request %d: result id %d, err %v", req.ID, res.ID, err)
	}
	sub, err := v.Subset(req.ChLo, req.ChHi, req.T0, req.T1)
	if err != nil {
		sc.t.Fatal(err)
	}
	want, _, err := sub.Read()
	if err != nil {
		sc.t.Fatal(err)
	}
	sameValues(sc.t, &dasf.Array2D{Channels: res.Channels, Samples: res.Samples, Data: data}, want)
}

// TestWorkerSurvivesHostileFrames: a negative shard row, a shape past the
// element cap, a job that panics outright and detector parameters larger
// than memory each cost one ShardError; the same connection's next shard is
// served, and so is a new connection's.
func TestWorkerSurvivesHostileFrames(t *testing.T) {
	leakcheck.Check(t)
	v, rate := makeView(t, 8, 2)
	files, err := filesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	// The last line of defence is the job's recover; make one job need it.
	const panicOp = "panic-for-test"
	w := NewWorker(WorkerConfig{Cores: 2, HeartbeatEvery: 100 * time.Millisecond})
	w.exec = func(ctx context.Context, req wire.ShardRequest, cores int) (wire.ShardResult, []float64, error) {
		if req.Op == panicOp {
			var rows [][]float64
			_ = rows[req.ChLo] // index out of range, like out.Row(coreLo+c) was
		}
		return executeShard(ctx, req, cores, w.scores)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Serve(ln) }()
	t.Cleanup(w.Close)
	addr := ln.Addr().String()
	good := wire.ShardRequest{Op: string(OpRead), Files: files, ChLo: 2, ChHi: 6, WinChHi: nch, T0: 0, T1: nt}

	sc := dialWorker(t, addr)
	negRow := good
	negRow.ID, negRow.ChLo = 1, -1
	sc.wantError(negRow, "out of file-set bounds")

	huge := good
	huge.ID = 2
	huge.Files = []wire.FileSpec{{Path: files[0].Path, NumChannels: 1 << 20, NumSamples: 1 << 30}}
	huge.ChLo, huge.ChHi, huge.T1 = 0, 1<<20, 1<<30
	sc.wantError(huge, "element cap")

	boom := good
	boom.ID, boom.Op = 3, panicOp
	sc.wantError(boom, "panicked")

	// Detector parameters that would size a borrow no machine has: an
	// out-of-memory throw is not a panic, so these must never get that far.
	// The same holds for every parameter of every registered op, and for a
	// parameter block that is not an object, has an unknown field, or names an
	// op nobody registered. (One that is not JSON at all, or has trailing
	// bytes, cannot ride in an envelope that decodes: that frame is dropped
	// unanswered, below; executeShard refuses the bytes themselves in
	// TestExecuteShardBoundsDetectorParams.)
	id := uint64(100)
	hostile := func(req wire.ShardRequest) {
		t.Helper()
		id++
		req.ID = id
		sc.wantError(req, "bad parameters")
	}
	for _, op := range detect.Ops() {
		p := op.Default(rate, nt)
		if p.Workload(nt).Prepare != nil {
			continue
		}
		frame := shardFrame(t, p, v, 2, 6)
		for _, f := range detect.Fields(p) {
			q := op.Default(rate, nt)
			if err := detect.Set(q, f.Key, "3000000000"); err != nil {
				t.Fatal(err)
			}
			hostile(shardFrame(t, q, v, 2, 6))
		}
		for _, raw := range []string{`[1,2,3]`, `"m=3"`, strings.Replace(string(frame.Params), "{", `{"nope":1,`, 1)} {
			req := frame
			req.Params = json.RawMessage(raw)
			hostile(req)
		}
		req := frame
		req.Op = "never-registered"
		hostile(req)
	}
	if err := sc.c.Send(wire.Frame{Type: wire.TypeShardRequest, Payload: []byte(`{"id":8,"op":"read","params":{"m":}`)}); err != nil {
		t.Fatal(err)
	}

	next := good
	next.ID = 4
	sc.wantResult(next, v)

	again := good
	again.ID = 5
	dialWorker(t, addr).wantResult(again, v)
	waitFor(t, 2*time.Second, func() bool { return w.InFlight() == 0 })
}

// misshapenWorker is a worker reduced to its socket: it answers the
// handshake and every shard request with reply's result, never a heartbeat.
// reply's last value cuts that many bytes from the encoded value block when
// negative, or appends that many when positive, under the same header.
func misshapenWorker(t *testing.T, reply func(wire.ShardRequest) (wire.ShardResult, []float64, int)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.WaitGroup
	t.Cleanup(func() { ln.Close(); conns.Wait() })
	conns.Add(1)
	go func() {
		defer conns.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				c := wire.NewConn(nc, 0)
				defer c.Abort()
				for {
					f, err := c.Recv()
					if err != nil {
						return
					}
					switch f.Type {
					case wire.TypeHello:
						_ = c.SendEnvelope(wire.TypeWelcome, wire.Welcome{Worker: "misshapen", Version: wire.Version})
					case wire.TypeShardRequest:
						var req wire.ShardRequest
						if wire.DecodeInto(f, &req) != nil {
							return
						}
						res, data, extra := reply(req)
						res.ID, res.Shard = req.ID, req.Shard
						rf, err := wire.EncodeResult(res, data)
						if err != nil {
							continue
						}
						if extra < 0 {
							rf.Payload = rf.Payload[:len(rf.Payload)+extra]
						} else {
							rf.Payload = append(rf.Payload[:len(rf.Payload):len(rf.Payload)], make([]byte, extra)...)
						}
						_ = c.Send(rf)
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// misshape is what the bad shard's reply gets wrong: its header declares
// rows and samples more (or fewer) than the shard's, and its value block
// carries bytes more (or fewer) than that header declares.
type misshape struct{ rows, samples, bytes int }

func (m misshape) String() string {
	return fmt.Sprintf("rows%+d,samples%+d,block%+dB", m.rows, m.samples, m.bytes)
}

// TestCoordinatorRefusesMisshapenResult: a result whose shape is not its
// shard's, or whose value block does not hold the cells its header declares,
// is a lost shard — NaN-masked with its gap under FailDegrade while the good
// shard keeps its values, an error under FailAbort, and either way well
// before the request's deadline. A row short once left a zero row reported
// clean, a row over wrote into the next shard or past the map, and a block
// short under a correct header left its shard waiting for the deadline with
// the good shard's rows lost too. Beyond the fixed ±1-row and ±8-byte
// cases, seeded ones vary the view's shape, the declared shape and the
// block's length together.
func TestCoordinatorRefusesMisshapenResult(t *testing.T) {
	leakcheck.Check(t)
	type tcase struct {
		name            string
		channels, files int
		m               misshape
	}
	cases := []tcase{
		{"rows-1", 8, 1, misshape{rows: -1}},
		{"rows+1", 8, 1, misshape{rows: +1}},
		{"block-8B", 8, 1, misshape{bytes: -8}},
		{"block+8B", 8, 1, misshape{bytes: +8}},
	}
	rng := rand.New(rand.NewSource(45))
	for len(cases) < 12 {
		c := tcase{channels: 4 + rng.Intn(9), files: 1 + rng.Intn(2)}
		for c.m == (misshape{}) {
			c.m = misshape{rows: rng.Intn(4) - 1, samples: rng.Intn(5) - 2}
			if rng.Intn(3) > 0 { // else the block holds what the header declares
				c.m.bytes = rng.Intn(41) - 20
			}
		}
		c.name = fmt.Sprintf("%dx%d/%s", c.channels, 100*c.files, c.m)
		cases = append(cases, c)
	}
	const bad, value = 1, 7.0 // the last of two shards is misshapen
	const deadline = 6 * time.Second
	for _, tc := range cases {
		v, _ := makeView(t, tc.channels, tc.files)
		nch, nt := v.Shape()
		badLo, badHi := dass.Partition(nch, 2, bad)
		addr := misshapenWorker(t, func(req wire.ShardRequest) (wire.ShardResult, []float64, int) {
			rows, samples, extra := req.ChHi-req.ChLo, req.T1-req.T0, 0
			if req.Shard == bad {
				rows, samples, extra = rows+tc.m.rows, samples+tc.m.samples, tc.m.bytes
				if extra < -8*rows*samples {
					extra = -8 * rows * samples // no shorter than an empty block
				}
			}
			data := make([]float64, rows*samples)
			for i := range data {
				data[i] = value
			}
			return wire.ShardResult{Channels: rows, Samples: samples}, data, extra
		})
		for _, policy := range []dass.FailPolicy{dass.FailDegrade, dass.FailAbort} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, policy), func(t *testing.T) {
				co := newCoord(t, []string{addr}, func(c *Config) {
					c.FailPolicy = policy
					c.DeadAfter = time.Minute // the socket sends no heartbeat
				})
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				defer cancel()
				start := time.Now()
				res, err := co.Run(ctx, Request{View: v, Op: OpRead, Shards: 2})
				if took := time.Since(start); took > deadline/2 {
					t.Fatalf("the run took %v of its %v deadline (err %v)", took, deadline, err)
				}
				if policy == dass.FailAbort {
					if err == nil {
						t.Fatal("a misshapen shard did not fail the run")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Degraded() || res.DegradedShards != 1 || len(res.Quality.Gaps) == 0 {
					t.Fatalf("degraded=%v, %d shards lost, gaps %v: want the misshapen shard lost",
						res.Degraded(), res.DegradedShards, res.Quality.Gaps)
				}
				for c := range nch {
					for i, x := range res.Data.Row(c) {
						if lost := c >= badLo && c < badHi; lost != math.IsNaN(x) || !lost && x != value {
							t.Fatalf("row %d sample %d of %d = %v (shard %d rows [%d,%d) lost)",
								c, i, nt, x, bad, badLo, badHi)
						}
					}
				}
			})
		}
	}
}

// TestWorkerChecksShapesAgainstHeaders: a frame that declares a real
// 128 ch × 1 000-sample member fifty times longer, or fifty times wider, is
// refused with a ShardError before a cold run sizes a block from it, for a
// read and a detection alike, and the refusal costs far less than the
// declared block.
func TestWorkerChecksShapesAgainstHeaders(t *testing.T) {
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 128, SampleRate: 250, FileSeconds: 4, NumFiles: 1, Seed: 7, DType: dasf.Float32}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dass.ViewOver(cat.Entries())
	if err != nil {
		t.Fatal(err)
	}
	files, err := filesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	if files[0].NumChannels != 128 || files[0].NumSamples != 1000 {
		t.Fatalf("fixture is %d×%d, want 128×1000", files[0].NumChannels, files[0].NumSamples)
	}
	simi, err := json.Marshal(detect.DefaultLocalSimi(cfg.SampleRate))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWorker(t, WorkerConfig{Cores: 1})
	sc := dialWorker(t, addr)
	id := uint64(0)
	for _, shape := range []struct {
		name, msg string
		mutate    func(f *wire.FileSpec)
	}{
		{"longer", "its header says 1000", func(f *wire.FileSpec) { f.NumSamples *= 50 }},
		{"wider", "its header says 128", func(f *wire.FileSpec) { f.NumChannels *= 50 }},
	} {
		declared := []wire.FileSpec{files[0]}
		shape.mutate(&declared[0])
		block := uint64(8 * declared[0].NumChannels * declared[0].NumSamples) // the block's bytes
		for _, req := range []wire.ShardRequest{
			{Op: string(OpRead)},
			{Op: detect.DefaultOp, Params: simi},
		} {
			id++
			req.ID, req.Files = id, declared
			req.ChHi, req.WinChHi, req.T1 = declared[0].NumChannels, declared[0].NumChannels, declared[0].NumSamples
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sc.wantError(req, shape.msg)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > block/8 {
				t.Errorf("%s, %s: the refusal allocated %d B, want well under the declared block's %d B", shape.name, req.Op, alloc, block)
			}
		}
	}
}
