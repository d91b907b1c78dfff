package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/omp"
	"dassa/internal/pfs"
	"dassa/internal/wire"
)

// fig7Ranks is the world size the reader strategies are compared at, as in
// the paper's Figure 7 at this repository's scale.
const fig7Ranks = 6

// layerBench carries what the layer microbenchmarks share: where values
// go, the time each timing may take, and the first error any of them hit.
type layerBench struct {
	m    *metricSet
	each time.Duration
	sc   scale
	rec  *record // D_layer
	root string
	err  error
}

func (b *layerBench) check(err error) {
	if err != nil && b.err == nil {
		b.err = err
	}
}

// layerBenches measures every layer on its own, through public functions,
// on a small record of its own (D_layer). The numbers do not depend on the
// workload being traced. budget is split evenly over the timings.
func layerBenches(m *metricSet, o options, root string, budget time.Duration) error {
	defer os.RemoveAll(root)
	rec, err := generate(filepath.Join(root, "data"), o.scale, o.scale.LayerFiles, o.scale.ServeFileSec, o.seed)
	if err != nil {
		return err
	}
	const timings = 36
	b := &layerBench{m: m, each: budget / timings, sc: o.scale, rec: rec, root: root}
	m.set("dasgen.generate_mb_s", mbPerSec(float64(rec.bytes), float64(rec.genNS)))
	b.fileFormat()
	v, err := b.catalogAndReaders()
	if err != nil {
		return err
	}
	b.runtime()
	if err := b.engineAndDetectors(v); err != nil {
		return err
	}
	if err := b.kernels(); err != nil {
		return err
	}
	b.wireCodec()
	return b.err
}

// fileFormat: dasf on one member file, contiguous and chunked-deflate.
func (b *layerBench) fileFormat() {
	m, each, check, rec, root := b.m, b.each, b.check, b.rec, b.root
	nch, spf := b.sc.Channels, rec.cfg.SamplesPerFile()
	fileCells := float64(nch * spf)
	arr, err := dasgen.GenerateFileArray(rec.cfg, dasgen.Fig10Events(rec.cfg), 0)
	if err != nil {
		check(err)
		return
	}
	chunked := filepath.Join(root, "chunked.dasf")
	rewrite := filepath.Join(root, "rewrite.dasf")
	if err := dasf.WriteDataCompressed(chunked, nil, nil, arr, dasf.Float32); err != nil {
		check(err)
		return
	}
	readAll := func(path string) func() {
		return func() {
			r, err := dasf.Open(path)
			if err != nil {
				check(err)
				return
			}
			_, err = r.ReadSlab(0, nch, 0, spf)
			check(err)
			r.Close()
		}
	}
	m.set("dasf.read_slab_mb_s", mbPerSec(fileCells*4, measure(each, readAll(rec.paths[0]))))
	m.set("dasf.read_slab_chunked_mb_s", mbPerSec(fileCells*4, measure(each, readAll(chunked))))
	m.set("dasf.open_us", measure(each, func() {
		_, _, err := dasf.ReadInfo(rec.paths[0])
		check(err)
	})/1e3)
	m.set("dasf.write_mb_s", mbPerSec(fileCells*4, measure(each, func() {
		check(dasf.WriteData(rewrite, nil, nil, arr, dasf.Float32))
	})))
	for name, path := range map[string]string{
		"dasf.stored_bytes_per_cell": rec.paths[0], "dasf.stored_bytes_per_cell_chunked": chunked,
	} {
		n, err := fileBytes([]string{path})
		check(err)
		m.set(name, float64(n)/fileCells)
	}
	check(os.Remove(chunked))
	check(os.Remove(rewrite))
}

// catalogAndReaders: dass catalog, merge, and the read strategies over the
// whole record. It returns the VCA view the engine benchmarks load from.
func (b *layerBench) catalogAndReaders() (*dass.View, error) {
	m, each, check, sc, rec := b.m, b.each, b.check, b.sc, b.rec
	nch := sc.Channels
	files := float64(sc.LayerFiles)
	m.set("dass.scan_cold_us_file", measure(each, func() {
		_ = os.Remove(filepath.Join(rec.dir, dass.IndexFileName)) // absent on the first call
		_, err := dass.ScanDirCached(rec.dir)
		check(err)
	})/1e3/files)
	m.set("dass.scan_cached_us_file", measure(each, func() {
		_, err := dass.ScanDirCached(rec.dir)
		check(err)
	})/1e3/files)
	cat, err := dass.ScanDirCached(rec.dir)
	if err != nil {
		return nil, err
	}
	entries := cat.Entries()
	m.set("dass.search_us", measure(each, func() {
		if got := cat.SearchRange(rec.timestamp(1), rec.timestamp(sc.LayerFiles-1)); len(got) != sc.LayerFiles-2 {
			check(fmt.Errorf("search found %d files", len(got)))
		}
	})/1e3)
	vca := filepath.Join(b.root, "layer.vca.dasf")
	m.set("dass.create_vca_us", measure(each, func() {
		_, err := dass.CreateVCA(vca, entries)
		check(err)
	})/1e3)
	// Appending needs a VCA that lacks the last file: time create+append
	// and take the creation (of one file fewer) back out.
	short := entries[:len(entries)-1]
	createShort := measure(each, func() {
		_, err := dass.CreateVCA(vca, short)
		check(err)
	})
	createAppend := measure(each, func() {
		_, err := dass.CreateVCA(vca, short)
		check(err)
		_, err = dass.AppendToVCA(vca, entries[len(entries)-1:])
		check(err)
	})
	m.set("dass.append_vca_us", math.Max(createAppend-createShort, 0)/1e3)
	if _, err := dass.CreateVCA(vca, entries); err != nil {
		return nil, err
	}
	v, err := dass.OpenView(vca)
	if err != nil {
		return nil, err
	}
	_, nt := v.Shape()
	viewBytes := float64(nch*nt) * 4
	m.set("dass.view_read_mb_s", mbPerSec(viewBytes, measure(each, func() {
		_, _, err := v.Read()
		check(err)
	})))
	var trCA, trColl pfs.Trace
	var worldCA *mpi.World
	parallelRead := func(read func(*mpi.Comm, *dass.View) (dass.Block, pfs.Trace), tr *pfs.Trace, world **mpi.World) func() {
		return func() {
			w, err := mpi.Run(fig7Ranks, func(c *mpi.Comm) {
				if _, t := read(c, v); c.Rank() == 0 && tr != nil {
					*tr = t
				}
			})
			check(err)
			if world != nil {
				*world = w
			}
		}
	}
	m.set("dass.read_independent_mb_s", mbPerSec(viewBytes, measure(each, parallelRead(dass.ReadIndependent, nil, nil))))
	m.set("dass.read_collective_mb_s", mbPerSec(viewBytes, measure(each, parallelRead(dass.ReadCollectivePerFile, &trColl, nil))))
	m.set("dass.read_commavoid_mb_s", mbPerSec(viewBytes, measure(each, parallelRead(dass.ReadCommAvoiding, &trCA, &worldCA))))
	// Operation counts of one comm-avoiding view read; broadcasts are the
	// collective-per-file reader's, the strategy that has them.
	m.set("dass.opens_per_view", float64(trCA.Opens))
	m.set("dass.reads_per_view", float64(trCA.Reads))
	m.set("dass.exchange_bytes_per_view", float64(trCA.ExchangeBytes))
	m.set("dass.bcasts_per_view", float64(trColl.Broadcasts))
	if worldCA != nil {
		m.set("mpi.msgs_per_commavoid_read", float64(worldCA.Stats().Messages))
	}
	return v, nil
}

// runtime: mpi and omp, the runtime under the engine.
func (b *layerBench) runtime() {
	m, each, check := b.m, b.each, b.check
	const a2aFloats = 32 << 10
	const a2aReps = 8
	send := make([][]float64, fig7Ranks)
	for i := range send {
		send[i] = make([]float64, a2aFloats)
	}
	a2aBytes := float64(a2aReps * fig7Ranks * (fig7Ranks - 1) * a2aFloats * 8)
	m.set("mpi.alltoallv_mb_s", mbPerSec(a2aBytes, measure(each, func() {
		_, err := mpi.Run(fig7Ranks, func(c *mpi.Comm) {
			for i := 0; i < a2aReps; i++ {
				mpi.Alltoallv(c, send)
			}
		})
		check(err)
	})))
	team := omp.NewTeam(engineCores)
	m.set("omp.parallel_for_overhead_us", measure(each, func() { team.For(engineCores, func(int) {}) })/1e3)
}

// engineAndDetectors: the block load, the apply loops on the in-memory
// block, and the detectors' UDFs evaluated serially.
func (b *layerBench) engineAndDetectors(v *dass.View) error {
	m, each, check, sc := b.m, b.each, b.check, b.sc
	nch := sc.Channels
	_, nt := v.Shape()
	team := omp.NewTeam(engineCores)
	// arrayudf: the block load of the detector's stencil. Halo bytes are
	// counted on a two-rank world — one rank has no halo to load.
	simi := core.DefaultLocalSimi(sc.SampleRate)
	spec := simi.Spec()
	var blk arrayudf.Block
	m.set("arrayudf.load_block_ms", measure(each, func() {
		_, err := mpi.Run(1, func(c *mpi.Comm) { blk, _, _ = arrayudf.LoadBlock(c, v, spec) })
		check(err)
	})/1e6)
	halo := make([]int64, 2)
	_, err := mpi.Run(2, func(c *mpi.Comm) {
		part, _, _ := arrayudf.LoadBlock(c, v, spec)
		halo[c.Rank()] = int64(part.Data.Channels-part.OwnedChannels()) * int64(nt) * 8
	})
	check(err)
	m.set("arrayudf.halo_bytes", float64(halo[0]+halo[1]))

	// haee: the apply loops on the in-memory block, and what the second
	// core buys over the single-thread baseline.
	reuse := obs.Default().Counter("dassa_daslib_scratch_reuse_total", "")
	alloc := obs.Default().Counter("dassa_daslib_scratch_alloc_total", "")
	reuse0, alloc0 := reuse.Value(), alloc.Value()
	outCells := float64(nch * spec.OutSamples(nt))
	var simMap *dasf.Array2D
	points := func(t *omp.Team) func() {
		return func() { simMap = haee.ApplyMTScratch(t, blk, spec, nt, simi.UDFScratch()) }
	}
	two := measure(each, points(team))
	one := measure(each, points(omp.NewTeam(1)))
	m.set("haee.points_mcells_s", ratio(outCells*1e3, two))
	m.set("haee.parallel_efficiency", ratio(one, float64(engineCores)*two))
	interf := core.DefaultInterferometry(sc.SampleRate)
	parts := interf.Workload(nt)
	var master any
	_, err = mpi.Run(1, func(c *mpi.Comm) { master, _, _ = parts.Prepare(c, v) })
	if err != nil {
		return err
	}
	rowUDF := func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) { parts.UDFInto(s, master, dst, scr) }
	m.set("haee.rows_mcells_s", ratio(float64(nch*nt)*1e3, measure(each, func() {
		haee.ApplyRowsInto(team, blk, parts.RowLen, rowUDF)
	})))
	reuses, allocs := float64(reuse.Value()-reuse0), float64(alloc.Value()-alloc0)
	m.set("daslib.scratch_reuse_ratio", ratio(reuses, reuses+allocs))

	// detect: the UDFs evaluated serially, without the engine around them.
	scr := daslib.NewScratch()
	st := blk.Stencil(0, 0)
	serialCells := func(udf func(*arrayudf.Stencil, *daslib.Scratch) float64, stride int) (cells float64, fn func()) {
		rows := min(nch, 4)
		return float64(rows * ((nt + stride - 1) / stride)), func() {
			for ch := 0; ch < rows; ch++ {
				for t := 0; t < nt; t += stride {
					st.SetPos(ch, t)
					udf(st, scr)
				}
			}
		}
	}
	cells, fn := serialCells(simi.UDFScratch(), max(simi.Stride, 1))
	m.set("detect.localsimi_ns_cell", measure(each, fn)/cells)
	stalta := detect.STALTAParams{STASamples: max(int(sc.SampleRate/10), 2), LTASamples: max(int(sc.SampleRate), 8)}
	cells, fn = serialCells(stalta.UDFScratch(), 16)
	m.set("detect.stalta_ns_cell", measure(each, fn)/cells)
	row := make([]float64, parts.RowLen)
	m.set("detect.interferometry_us_row", measure(each, func() {
		st.SetPos(1, 0)
		rowUDF(st, row, scr)
	})/1e3)
	m.set("detect.find_events_banded_ms", measure(each, func() {
		detect.FindEventsBanded(simMap, simi.Threshold, max(nch/8, 4))
	})/1e6)
	return nil
}

// kernels: the planned daslib kernels, which must not allocate once warm.
func (b *layerBench) kernels() error {
	m, each, check := b.m, b.each, b.check
	scr := daslib.NewScratch()
	width := 2*core.DefaultLocalSimi(b.sc.SampleRate).M + 1
	const n = 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*7*float64(i)/64) + 0.3*math.Cos(2*math.Pi*0.11*float64(i))
	}
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	cdst := make([]complex128, n)
	plan := daslib.PlanFFT(n)
	num, den, err := daslib.Butter(4, daslib.Bandpass, 0.05, 0.4)
	if err != nil {
		return err
	}
	fp, err := daslib.NewFilterPlan(num, den)
	if err != nil {
		return err
	}
	fdst := make([]float64, n)
	rdst := make([]float64, daslib.ResampleLen(n, 1, 2))
	mst := daslib.PrepareXCorrMaster(x, n)
	corr := make([]float64, daslib.XCorrLen(n, n))
	var sink float64
	kernels := []struct {
		metric string
		per    float64 // divide ns per call by this
		fn     func()
	}{
		{"daslib.fft4096_ns", 1, func() { plan.FFTInto(cdst, cx, scr) }},
		{"daslib.rfft4096_ns", 1, func() { daslib.RFFTInto(cdst, x, scr) }},
		{"daslib.filtfilt_ns_sample", n, func() { check(fp.FiltFiltInto(fdst, x, scr)) }},
		{"daslib.resample_ns_sample", n, func() { check(daslib.ResampleInto(rdst, x, 1, 2, scr)) }},
		{"daslib.xcorr_master_ns", 1, func() { mst.XCorrNormalizedInto(corr, x, scr) }},
		{"daslib.abscorr_ns", 1, func() { sink += daslib.AbsCorr(x[:width], x[width:2*width]) }},
	}
	var mallocs float64
	for _, k := range kernels {
		m.set(k.metric, measure(each, k.fn)/k.per)
		mallocs += mallocsPerCall(20, k.fn)
	}
	m.set("daslib.planned_allocs_op", mallocs)
	if math.IsNaN(sink) {
		check(fmt.Errorf("AbsCorr returned NaN"))
	}

	return nil
}

// wireCodec: the result codec on an 8 MiB payload, and one frame's round
// trip over loopback TCP.
func (b *layerBench) wireCodec() {
	m, each, check := b.m, b.each, b.check
	payload := make([]float64, 1<<20)
	for i := range payload {
		payload[i] = float64(i)
	}
	hdr := wire.ShardResult{Channels: 1 << 10, Samples: 1 << 10}
	var frame wire.Frame
	m.set("wire.encode_result_mb_s", mbPerSec(8<<20, measure(each, func() {
		var err error
		frame, err = wire.EncodeResult(hdr, payload)
		check(err)
	})))
	m.set("wire.decode_result_mb_s", mbPerSec(8<<20, measure(each, func() {
		_, _, err := wire.DecodeResult(frame)
		check(err)
	})))
	rtt, err := loopbackRTT(each)
	check(err)
	m.set("wire.loopback_rtt_us", rtt/1e3)
}

// loopbackRTT times a heartbeat frame echoed by a wire.Conn peer on
// 127.0.0.1.
func loopbackRTT(budget time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1) // the echo goroutine's single exit report
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		peer := wire.NewConn(nc, 0)
		for {
			f, err := peer.Recv()
			if err != nil {
				peer.Abort()
				echoed <- nil // the client hanging up ends the echo
				return
			}
			if err := peer.Send(f); err != nil {
				peer.Abort()
				echoed <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return 0, err
	}
	conn := wire.NewConn(nc, 0)
	beat, err := wire.Encode(wire.TypeHeartbeat, wire.Heartbeat{UnixNano: 1})
	var rttErr error
	ns := measure(budget, func() {
		if err := conn.Send(beat); err != nil {
			rttErr = err
			return
		}
		if _, err := conn.Recv(); err != nil {
			rttErr = err
		}
	})
	conn.Abort()
	if e := <-echoed; e != nil && rttErr == nil {
		rttErr = e
	}
	if err != nil {
		return 0, err
	}
	return ns, rttErr
}
