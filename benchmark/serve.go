package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/omp"
	"dassa/internal/serve"
	"dassa/internal/wire"
)

// Request mix of the serve workloads, per block of ten requests.
const (
	searchPerTen = 1
	readPerTen   = 4
	detectPerTen = 5
	// readFiles and detectFiles are the c= of /read and /detect; readBands
	// cuts the channel axis into the fixed grid /read requests come from.
	readFiles   = 2
	detectFiles = 4
	readBands   = 4
	// valueCheckEvery: one /read body in this many is compared sample by
	// sample against a direct file read.
	valueCheckEvery = 16
	// walkEvery: the traced pass walks one request in this many.
	walkEvery = 8
	// requestListLen is how many requests are generated up front; the
	// client wraps around if a window outlasts it.
	requestListLen = 4000
	clusterWorkers = 2
)

type request struct {
	class  string // search | read | detect
	path   string // URL path and query
	win    fileWindow
	band   int
	values bool // value-check this /read body
}

// served is dassd answering a one-client closed loop over one record
// that is fully ingested before the window opens. With distributed set the
// daemon fans /read and /detect out to two in-process workers; the request
// list is byte-identical either way.
type served struct {
	name        string
	distributed bool
	sc          scale
	seed        int64
	root        string

	rec  *record
	d    *daemon
	reqs []request
}

func newServed(name string, distributed bool, sc scale, seed int64, root string) *served {
	return &served{name: name, distributed: distributed, sc: sc, seed: seed, root: root}
}

func (s *served) primary() string { return "detect" }

// buildRequests generates the whole request list from the seed: every block
// of ten holds exactly the 1/4/5 mix in a seeded order, over seeded files
// and bands.
func buildRequests(rec *record, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	files := rec.cfg.NumFiles
	bandW := rec.cfg.Channels / readBands
	block := make([]string, 0, 10)
	for i := 0; i < searchPerTen; i++ {
		block = append(block, "search")
	}
	for i := 0; i < readPerTen; i++ {
		block = append(block, "read")
	}
	for i := 0; i < detectPerTen; i++ {
		block = append(block, "detect")
	}
	var reqs []request
	reads := 0
	for len(reqs) < requestListLen {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			r := request{class: class}
			switch class {
			case "search":
				n := 1 + rng.Intn(8)
				r.win = fileWindow{rng.Intn(files - n + 1), n}
				// Half-open: the file after the window bounds it.
				end := rec.timestamp(r.win.first+n-1) + 1
				r.path = fmt.Sprintf("/search?start=%d&end=%d", rec.timestamp(r.win.first), end)
			case "read":
				r.win = fileWindow{rng.Intn(files - readFiles + 1), readFiles}
				r.band = rng.Intn(readBands)
				reads++
				r.values = reads%valueCheckEvery == 0
				r.path = fmt.Sprintf("/read?s=%d&c=%d&ch0=%d&ch1=%d",
					rec.timestamp(r.win.first), readFiles, r.band*bandW, (r.band+1)*bandW)
			case "detect":
				r.win = fileWindow{rng.Intn(files - detectFiles + 1), detectFiles}
				r.path = fmt.Sprintf("/detect?op=localsimi&s=%d&c=%d", rec.timestamp(r.win.first), detectFiles)
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

func (s *served) setup() error {
	rec, err := generate(filepath.Join(s.root, "watch"), s.sc, s.sc.ServeFiles, s.sc.ServeFileSec, s.seed)
	if err != nil {
		return err
	}
	return s.serveRecord(rec)
}

// serveRecord starts the daemon over an already generated record and warms
// it: one pass over every distinct hyperslab key the request list can
// touch, then a short stretch of the real mix.
func (s *served) serveRecord(rec *record) error {
	s.rec = rec
	s.reqs = buildRequests(rec, s.seed)
	workers := 0
	if s.distributed {
		workers = clusterWorkers
	}
	d, err := startDaemon(rec.dir, 0, serve.IngestConfig{}, workers)
	if err != nil {
		return err
	}
	s.d = d
	bandW := rec.cfg.Channels / readBands
	for f := 0; f+readFiles <= rec.cfg.NumFiles; f += readFiles {
		for b := 0; b < readBands; b++ {
			path := fmt.Sprintf("/read?s=%d&c=%d&ch0=%d&ch1=%d&data=0", rec.timestamp(f), readFiles, b*bandW, (b+1)*bandW)
			if err := d.mustGet(path); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	for f := 0; f+detectFiles <= rec.cfg.NumFiles; f += detectFiles {
		path := fmt.Sprintf("/detect?op=localsimi&s=%d&c=%d", rec.timestamp(f), detectFiles)
		if err := d.mustGet(path); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	// The tail of the list, so the timed window starts at its head.
	w := newWindow()
	for i := 0; i < 20; i++ {
		s.issue(s.reqs[len(s.reqs)-1-i], w, nil)
	}
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %v", w.why)
	}
	return nil
}

func (s *served) teardown() error {
	if s.d != nil {
		s.d.close()
	}
	return os.RemoveAll(s.root)
}

// paths returns the member files of a window.
func (s *served) paths(win fileWindow) []string {
	return s.rec.paths[win.first : win.first+win.count]
}

// issue performs one request, gates it, and — under an operation span —
// replays it through the layers.
func (s *served) issue(r request, w *window, op *spanRef) {
	e2e := op.child("e2e." + r.class)
	code, body, lat, err := s.d.get(r.path)
	e2e.end("body_bytes", len(body))
	if err == nil {
		switch r.class {
		case "search":
			var sr searchResp
			if code != 200 {
				err = fmt.Errorf("status %d", code)
			} else if err = json.Unmarshal(body, &sr); err == nil && sr.Matches != r.win.count {
				err = fmt.Errorf("%d matches, want %d", sr.Matches, r.win.count)
			}
		case "read":
			bandW := s.rec.cfg.Channels / readBands
			err = checkRead(code, body, s.rec, s.paths(r.win), r.band*bandW, (r.band+1)*bandW, s.distributed, r.values)
			w.add("read_body_bytes", float64(len(body)))
		case "detect":
			_, err = checkDetect(code, body, s.rec, r.win, s.distributed, s.rec.holdsQuake(r.win))
		}
	}
	if err == nil && op != nil {
		err = replayRequest(s.d, s.rec, r, s.distributed, op)
	}
	if err != nil {
		w.fail(r.class, "%s: %v", r.path, err)
		return
	}
	w.ok(r.class, lat)
}

// window runs the closed-loop client over the request list until the
// deadline. In the traced pass one request in walkEvery is walked.
func (s *served) window(d time.Duration, tr *tracer) *window {
	before := s.d.srv.Cache().Stats()
	wireBefore := wire.BytesIn() + wire.BytesOut()
	var adm0 statusResp
	s.status(&adm0)
	w := newWindow()
	for i := 0; time.Since(w.start) < d; i++ {
		var op *spanRef
		if tr != nil && i%walkEvery == 0 {
			op = tr.op(s.name)
		}
		s.issue(s.reqs[i%len(s.reqs)], w, op)
		op.end()
	}
	w.elapsed = time.Since(w.start)
	after := s.d.srv.Cache().Stats()
	var adm1 statusResp
	s.status(&adm1)
	w.add("cache_hits", float64(after.Hits-before.Hits))
	w.add("cache_misses", float64(after.Misses-before.Misses))
	w.add("cache_evictions", float64(after.Evictions-before.Evictions))
	w.add("wire_bytes", float64(wire.BytesIn()+wire.BytesOut()-wireBefore))
	w.add("admission_queued", float64(adm1.Admission.Queued-adm0.Admission.Queued))
	w.add("admission_rejected", float64(adm1.Admission.Rejected-adm0.Admission.Rejected))
	return w
}

// status reads the daemon's /status, which sits outside admission control.
func (s *served) status(into *statusResp) {
	if _, body, _, err := s.d.get("/status"); err == nil {
		_ = json.Unmarshal(body, into) // a zero block only zeroes the deltas
	}
}

// replayRequest walks one request through the layers the daemon's handler
// uses, one public function at a time. ingest_stream shares it: its
// requests hit the same handlers.
func replayRequest(d *daemon, rec *record, r request, distributed bool, op *spanRef) error {
	cat := d.srv.Ingester().Catalog()
	var entries []dass.Entry
	_ = op.step("dass.search", func() error {
		if r.class == "search" {
			entries = cat.SearchRange(rec.timestamp(r.win.first), rec.timestamp(r.win.first+r.win.count-1)+1)
		} else {
			entries = cat.SearchStartCount(rec.timestamp(r.win.first), r.win.count)
		}
		return nil
	})
	if len(entries) != r.win.count {
		return fmt.Errorf("replay search: %d entries, want %d", len(entries), r.win.count)
	}
	encode := func(v any) error {
		return op.step("serve.json_encode", func() error {
			_, err := json.Marshal(v)
			return err
		})
	}
	if r.class == "search" {
		return encode(entries)
	}

	var v *dass.View
	err := op.step("dass.view_over", func() (err error) {
		if v, err = dass.ViewOver(entries); err != nil {
			return err
		}
		v = v.WithSlabReader(d.srv.Cache().SlabReader())
		if r.class == "read" {
			bandW := rec.cfg.Channels / readBands
			_, nt := v.Shape()
			v, err = v.Subset(r.band*bandW, (r.band+1)*bandW, 0, nt)
		}
		return err
	})
	if err != nil {
		return err
	}

	if r.class == "read" {
		// /read without the data, same key: what is left of the end-to-end
		// latency is encoding and transferring the rows.
		if err := op.step("serve.read_nodata", func() error { return d.mustGet(r.path + "&data=0") }); err != nil {
			return err
		}
		var arr *dasf.Array2D
		if distributed {
			res, err := clusterRun(d, cluster.Request{View: v, Op: cluster.OpRead}, op)
			if err != nil {
				return err
			}
			arr = res.Data
		} else {
			sp := op.child("dass.view_read")
			a, tr, _, err := v.ReadPolicy(dass.FailDegrade)
			sp.end("opens", tr.Opens, "reads", tr.Reads, "bytes_read", tr.BytesRead)
			if err != nil {
				return err
			}
			arr = a
		}
		rows := make([][]float64, arr.Channels)
		for c := range rows {
			rows[c] = arr.Row(c)
		}
		return encode(map[string]any{"data": rows})
	}

	// detect
	simi := core.DefaultLocalSimi(rec.cfg.SampleRate)
	nch, nt := v.Shape()
	var regions []detect.Region
	if distributed {
		res, err := clusterRun(d, cluster.Request{View: v, Op: cluster.OpLocalSimi,
			Rate: rec.cfg.SampleRate, LocalSimi: simi.LocalSimiParams}, op)
		if err != nil {
			return err
		}
		_ = op.step("detect.find_events", func() error {
			regions = detect.FindEventsBanded(res.Data, simi.Threshold, max(nch/8, 4))
			return nil
		})
	} else {
		spec := simi.Spec()
		spec.FailPolicy = dass.FailDegrade
		blk, err := loadBlock(op, v, spec, false)
		if err != nil {
			return err
		}
		_, regions = applyLocalSimi(op, omp.NewTeam(engineCores), blk, simi, nt, nch)
	}
	return encode(regions)
}

// clusterRun calls the daemon's coordinator directly, then encodes and
// decodes one frame of the real shard size per shard — the wire work the
// run did inside, replayed where a span can see it.
func clusterRun(d *daemon, req cluster.Request, op *spanRef) (*cluster.Result, error) {
	sp := op.child("cluster.run")
	res, err := d.srv.Cluster().Run(context.Background(), req)
	if err != nil {
		sp.end()
		return nil, err
	}
	sp.end("shards", res.Shards, "redispatched", res.Redispatched,
		"worker_bytes_read", res.Trace.BytesRead, "workers", res.Workers)
	if res.Degraded() {
		return nil, fmt.Errorf("replay: cluster run degraded")
	}
	rows := res.Data.Channels / max(res.Shards, 1)
	shard := res.Data.Data[:rows*res.Data.Samples]
	hdr := wire.ShardResult{Channels: rows, Samples: res.Data.Samples}
	for i := 0; i < res.Shards; i++ {
		var f wire.Frame
		err := op.step("wire.encode_result", func() (err error) {
			f, err = wire.EncodeResult(hdr, shard)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = op.step("wire.decode_result", func() error {
			_, _, err := wire.DecodeResult(f)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
