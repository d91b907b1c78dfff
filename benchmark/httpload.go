package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/detect"
	"dassa/internal/obs"
	"dassa/internal/serve"
)

// daemon is one in-process dassd behind a real HTTP listener, optionally
// with in-process cluster workers on loopback TCP. Everything it starts is
// closed and joined by close.
type daemon struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	workers []*cluster.Worker
	serving sync.WaitGroup
}

// startDaemon starts dassd over dir with a private metrics registry (so
// two daemons in one process never share series). nWorkers > 0 configures
// that many single-core cluster workers and waits until all are healthy.
func startDaemon(dir string, cacheBytes int64, ingest serve.IngestConfig, nWorkers int) (*daemon, error) {
	d := &daemon{}
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		w := cluster.NewWorker(cluster.WorkerConfig{Cores: 1})
		d.serving.Add(1)
		go func() {
			defer d.serving.Done()
			_ = w.Serve(ln) // returns nil once Close stops the accept loop
		}()
		d.workers = append(d.workers, w)
		addrs = append(addrs, ln.Addr().String())
	}
	ingest.Dir = dir
	ingest.Poll = time.Hour // the benchmark drives every scan itself
	d.srv = serve.NewServer(serve.Config{
		Ingest: ingest, CacheBytes: cacheBytes,
		Nodes: engineNodes, CoresPerNode: engineCores,
		Workers: addrs, Registry: obs.NewRegistry(),
	})
	if err := d.srv.Ingester().ScanOnce(); err != nil {
		d.close()
		return nil, err
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	// One keep-alive connection for the one closed-loop client.
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
	}}
	for deadline := time.Now().Add(10 * time.Second); nWorkers > 0 && d.srv.Cluster().HealthyWorkers() < nWorkers; {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("only %d of %d workers became healthy", d.srv.Cluster().HealthyWorkers(), nWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

// close stops client, listener, coordinator and workers, in that order,
// and returns once every goroutine they owned has exited.
func (d *daemon) close() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.ts != nil {
		d.ts.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	for _, w := range d.workers {
		w.Close()
	}
	d.serving.Wait()
}

// get issues one request and returns status, body and the client-side
// latency from send to the last body byte.
func (d *daemon) get(path string) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// mustGet is get for requests that have to succeed (warm-up, replay).
func (d *daemon) mustGet(path string) error {
	code, body, _, err := d.get(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.120s", path, code, body)
	}
	return nil
}

// Response shapes, as far as the gates look at them.
type searchResp struct {
	Matches int `json:"matches"`
}

type readResp struct {
	NumChannels int  `json:"num_channels"`
	NumSamples  int  `json:"num_samples"`
	Files       int  `json:"files"`
	Gaps        int  `json:"gaps"`
	Distributed bool `json:"distributed"`
	// Data stays raw unless this response is one of the value-checked
	// ones: the load generator shares the two cores with the daemon.
	Data json.RawMessage `json:"data"`
}

type detectResp struct {
	Files       int  `json:"files"`
	Degraded    bool `json:"degraded"`
	Distributed bool `json:"distributed"`
	Events      []struct {
		TLo  int `json:"t_lo"`
		THi  int `json:"t_hi"`
		ChLo int `json:"ch_lo"`
		ChHi int `json:"ch_hi"`
	} `json:"events"`
	Cluster struct {
		Shards       int `json:"shards"`
		Redispatched int `json:"redispatched"`
	} `json:"cluster"`
}

type statusResp struct {
	Admission serve.AdmissionStats `json:"admission"`
}

// fileWindow names a run of consecutive files of a record.
type fileWindow struct{ first, count int }

func (rec *record) timestamp(i int) int64 { return dasgen.FileTimestamp(rec.cfg, i) }

// checkRead is the /read gate: status, shape, no gaps, the expected
// execution path, and — when values is set — every sample against a direct
// dasf.Reader.ReadSlab of the member files at paths.
func checkRead(code int, body []byte, rec *record, paths []string, chLo, chHi int, distributed, values bool) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", code, body)
	}
	var r readResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("undecodable body: %w", err)
	}
	spf := rec.cfg.SamplesPerFile()
	if r.NumChannels != chHi-chLo || r.NumSamples != len(paths)*spf || r.Files != len(paths) || r.Gaps != 0 {
		return fmt.Errorf("wrong shape: %d×%d over %d files, %d gaps", r.NumChannels, r.NumSamples, r.Files, r.Gaps)
	}
	if r.Distributed != distributed {
		return fmt.Errorf("distributed=%v, want %v", r.Distributed, distributed)
	}
	if !values {
		return nil
	}
	var rows [][]float64
	if err := json.Unmarshal(r.Data, &rows); err != nil {
		return fmt.Errorf("undecodable data: %w", err)
	}
	if len(rows) != chHi-chLo {
		return fmt.Errorf("data has %d rows, want %d", len(rows), chHi-chLo)
	}
	for m, p := range paths {
		rd, err := dasf.Open(p)
		if err != nil {
			return err
		}
		want, err := rd.ReadSlab(chLo, chHi, 0, spf)
		rd.Close()
		if err != nil {
			return err
		}
		for c := range rows {
			if len(rows[c]) != len(paths)*spf || !sameBits(rows[c][m*spf:(m+1)*spf], want.Row(c)) {
				return fmt.Errorf("values differ from a direct read of %s", p)
			}
		}
	}
	return nil
}

// checkDetect is the /detect gate: status, file count, not degraded, the
// expected execution path, and — when the caller expects it — the planted
// earthquake among the events.
func checkDetect(code int, body []byte, rec *record, win fileWindow, distributed, expectQuake bool) (detectResp, error) {
	var r detectResp
	if code != http.StatusOK {
		return r, fmt.Errorf("status %d: %.120s", code, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("undecodable body: %w", err)
	}
	if r.Files != win.count || r.Degraded {
		return r, fmt.Errorf("files=%d degraded=%v", r.Files, r.Degraded)
	}
	if r.Distributed != distributed {
		return r, fmt.Errorf("distributed=%v, want %v", r.Distributed, distributed)
	}
	if expectQuake {
		spf := rec.cfg.SamplesPerFile()
		regions := make([]detect.Region, len(r.Events))
		for i, e := range r.Events {
			regions[i] = detect.Region{TLo: e.TLo, THi: e.THi, ChLo: e.ChLo, ChHi: e.ChHi}
		}
		outT := core.DefaultLocalSimi(rec.cfg.SampleRate).Spec().OutSamples(win.count * spf)
		if !quakeFound(regions, rec, win.first*spf, (win.first+win.count)*spf, outT) {
			return r, fmt.Errorf("window of files %d..%d holds the planted earthquake, %d events miss it",
				win.first, win.first+win.count-1, len(r.Events))
		}
	}
	return r, nil
}

// holdsQuake reports whether the file window holds the planted earthquake
// well enough that a detector must find it: from its origin until the S
// wave has crossed the whole fiber.
func (rec *record) holdsQuake(win fileWindow) bool {
	q := rec.quake()
	far := max(q.EpicenterChannel, float64(rec.cfg.Channels)-q.EpicenterChannel)
	lo := float64(win.first) * rec.cfg.FileSeconds
	hi := float64(win.first+win.count) * rec.cfg.FileSeconds
	return lo <= q.OriginSec && q.OriginSec+far/q.SVel <= hi
}
