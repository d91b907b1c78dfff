package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/mpi"
	"dassa/internal/omp"
	"dassa/internal/pfs"
)

// batch is the offline path a geophysicist uses: open the directory, merge
// it virtually, run one analysis over the whole record with the result
// written out, and clean up. One operation is one such run.
type batch struct {
	name   string
	interf bool // Algorithm 3 (interferometry) instead of Algorithm 2
	sc     scale
	seed   int64
	root   string

	// deep makes every run also read the allocation delta. Traced runs
	// only: ReadMemStats stops the world.
	deep bool

	rec *record
	fw  *core.Framework
	ref *dasf.Array2D // 1-core reference output, computed during set-up
	out string        // result file, rewritten by every run
}

func newBatch(name string, interf bool, sc scale, seed int64, root string, deep bool) *batch {
	return &batch{name: name, interf: interf, sc: sc, seed: seed, root: root, deep: deep}
}

func (b *batch) primary() string { return "analyze" }

// gate: a batch run has no mechanism to check beyond its per-run gates.
func (b *batch) gate(*window) error { return nil }

func (b *batch) setup() error {
	rec, err := generate(filepath.Join(b.root, "data"), b.sc, b.sc.BatchFiles, b.sc.BatchFileSec, b.seed)
	if err != nil {
		return err
	}
	b.rec = rec
	b.out = filepath.Join(b.root, "result.dasf")
	b.fw = core.New(core.Config{Nodes: engineNodes, CoresPerNode: engineCores})

	// The single-thread baseline doubles as the correctness reference:
	// every timed run must reproduce it bit for bit.
	one := core.New(core.Config{Nodes: 1, CoresPerNode: 1})
	ref, _, _, err := b.analyze(one, "")
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.ref = ref
	for i := 0; i < b.sc.BatchWarmups; i++ {
		if _, err := b.runOnce(nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *batch) teardown() error { return os.RemoveAll(b.root) }

// analyze is the end-to-end call: open → merge → analyse (→ write) → clean.
func (b *batch) analyze(fw *core.Framework, outPath string) (*dasf.Array2D, []detect.Region, core.Report, error) {
	ds, err := core.OpenDataset(b.rec.dir)
	if err != nil {
		return nil, nil, core.Report{}, err
	}
	v, err := ds.MergeAll()
	if err != nil {
		return nil, nil, core.Report{}, err
	}
	var out *dasf.Array2D
	var regions []detect.Region
	var rep core.Report
	if b.interf {
		opt := core.DefaultInterferometry(b.sc.SampleRate)
		opt.OutPath = outPath
		out, rep, err = fw.Interferometry(v, opt)
	} else {
		opt := core.DefaultLocalSimi(b.sc.SampleRate)
		opt.OutPath = outPath
		out, regions, rep, err = fw.LocalSimilarity(v, opt)
	}
	if err != nil {
		return nil, nil, rep, err
	}
	return out, regions, rep, ds.CleanMergeFiles()
}

// verify is the correctness gate of one run: bit-identical to the 1-core
// reference, the written file reads back as the returned array, and (for
// the detector) the planted earthquake is among the events.
func (b *batch) verify(out *dasf.Array2D, regions []detect.Region, outPath string) error {
	if out.Channels != b.ref.Channels || out.Samples != b.ref.Samples || !sameBits(out.Data, b.ref.Data) {
		return fmt.Errorf("output differs from the 1-core reference")
	}
	if outPath != "" {
		r, err := dasf.Open(outPath)
		if err != nil {
			return err
		}
		back, err := r.ReadAll()
		r.Close()
		if err != nil {
			return err
		}
		if !sameBits(back.Data, out.Data) {
			return fmt.Errorf("written result does not read back")
		}
	}
	if !b.interf && !quakeFound(regions, b.rec, 0, b.rec.cfg.TotalSamples(), out.Samples) {
		return fmt.Errorf("planted earthquake not among the events %+v", regions)
	}
	return nil
}

// quakeFound reports whether regions (in output-sample indices of a map
// over record samples [t0, t1)) hold a detection that overlaps the planted
// earthquake in time and spans more than half the channels — the
// earthquake is the only planted event that wide.
func quakeFound(regions []detect.Region, rec *record, t0, t1, outSamples int) bool {
	q := rec.quake()
	rate := rec.cfg.SampleRate
	// S arrival at the farthest channel, plus ring-down.
	far := max(q.EpicenterChannel, float64(rec.cfg.Channels)-q.EpicenterChannel)
	qLo, qHi := q.OriginSec*rate, (q.OriginSec+far/q.SVel+q.DurSec)*rate
	per := float64(t1-t0) / float64(outSamples) // record samples per output sample
	for _, r := range regions {
		lo, hi := float64(t0)+float64(r.TLo)*per, float64(t0)+float64(r.THi+1)*per
		if hi > qLo && lo < qHi && r.ChHi-r.ChLo > rec.cfg.Channels/2 {
			return true
		}
	}
	return false
}

// runStats is what one end-to-end run reports besides its wall time.
type runStats struct {
	wall    time.Duration
	rep     core.Report
	allocMB float64
}

// runOnce performs one operation, under an operation span with the layer
// replay when op is non-nil, and verifies it.
func (b *batch) runOnce(op *spanRef) (runStats, error) {
	var st runStats
	var before, after runtime.MemStats
	if b.deep {
		runtime.ReadMemStats(&before)
	}
	e2e := op.child("e2e.analyze")
	t0 := time.Now()
	out, regions, rep, err := b.analyze(b.fw, b.out)
	st.wall = time.Since(t0)
	e2e.end("opens", rep.ReadTrace.Opens, "reads", rep.ReadTrace.Reads, "bytes_read", rep.ReadTrace.BytesRead)
	st.rep = rep
	if b.deep {
		runtime.ReadMemStats(&after)
		st.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	if err != nil {
		return st, err
	}
	if err := b.verify(out, regions, b.out); err != nil {
		return st, err
	}
	if op != nil {
		if err := b.replay(op); err != nil {
			return st, fmt.Errorf("replay: %w", err)
		}
	}
	return st, nil
}

// tracedSlab is the view's default member read — open, hyperslab, close —
// wrapped in a span, so a block load's children are the dasf reads under it.
func tracedSlab(parent *spanRef) dass.SlabReaderFunc {
	return func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		sp := parent.child("dasf.read_slab")
		r, err := dasf.OpenContext(ctx, path)
		if err != nil {
			sp.end()
			return nil, dasf.IOStats{}, err
		}
		a, err := r.ReadSlab(chLo, chHi, tLo, tHi)
		st := r.Stats()
		r.Close()
		sp.end("opens", st.Opens, "reads", st.Reads, "bytes_read", st.BytesRead)
		return a, st, err
	}
}

// replay walks the operation's input through the layers one public
// function at a time, each in its own span, and checks that the walk
// computes the same array the end-to-end call did.
func (b *batch) replay(op *spanRef) error {
	var cat *dass.Catalog
	err := op.step("dass.scan", func() (err error) {
		cat, err = dass.ScanDirCached(b.rec.dir)
		return err
	})
	if err != nil {
		return err
	}
	vca := filepath.Join(b.rec.dir, ".walk.vca.dasf")
	err = op.step("dass.create_vca", func() error {
		_, err := dass.CreateVCA(vca, cat.Entries())
		return err
	})
	if err != nil {
		return err
	}
	var v *dass.View
	err = op.step("dass.open_view", func() (err error) {
		v, err = dass.OpenView(vca)
		return err
	})
	if err != nil {
		return err
	}
	_, nt := v.Shape()

	// The engine's layout: one rank (node) with a two-thread team.
	team := omp.NewTeam(engineCores)
	var out *dasf.Array2D
	var regions []detect.Region
	if b.interf {
		parts := core.DefaultInterferometry(b.sc.SampleRate).Workload(nt)
		blk, err := loadBlock(op, v, arrayudf.Spec{}, true)
		if err != nil {
			return err
		}
		var master any
		prep := op.child("detect.prepare_master")
		_, err = mpi.Run(engineNodes, func(c *mpi.Comm) {
			master, _, _ = parts.Prepare(c, v.WithSlabReader(tracedSlab(prep)))
		})
		prep.end()
		if err != nil {
			return err
		}
		_ = op.step("haee.apply", func() error {
			out = haee.ApplyRowsInto(team, blk, parts.RowLen, func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
				parts.UDFInto(s, master, dst, scr)
			})
			return nil
		})
	} else {
		simi := core.DefaultLocalSimi(b.sc.SampleRate)
		blk, err := loadBlock(op, v, simi.Spec(), true)
		if err != nil {
			return err
		}
		out, regions = applyLocalSimi(op, team, blk, simi, nt, b.sc.Channels)
	}
	walkOut := filepath.Join(b.root, "walk-result.dasf")
	if err := op.step("dasf.write", func() error { return writeArray(walkOut, out) }); err != nil {
		return err
	}
	if err := op.step("core.clean", func() error { return os.Remove(vca) }); err != nil {
		return err
	}
	return b.verify(out, regions, walkOut)
}

// loadBlock is the engine's load phase under a span: the one rank of the
// fixed layout loads its ghost-extended block. With direct set the member
// reads go straight to the files and appear as dasf.read_slab children;
// otherwise the view keeps the reader it has (the daemon's cache).
func loadBlock(op *spanRef, v *dass.View, spec arrayudf.Spec, direct bool) (arrayudf.Block, error) {
	var blk arrayudf.Block
	load := op.child("arrayudf.load_block")
	if direct {
		v = v.WithSlabReader(tracedSlab(load))
	}
	_, err := mpi.Run(engineNodes, func(c *mpi.Comm) {
		var t pfs.Trace
		blk, t, _ = arrayudf.LoadBlock(c, v, spec)
		load.end("opens", t.Opens, "reads", t.Reads, "bytes_read", t.BytesRead)
	})
	return blk, err
}

// applyLocalSimi is the detector's compute phase and event scan, each under
// a span.
func applyLocalSimi(op *spanRef, team *omp.Team, blk arrayudf.Block, simi core.LocalSimiOptions, nt, nch int) (*dasf.Array2D, []detect.Region) {
	var out *dasf.Array2D
	var regions []detect.Region
	_ = op.step("haee.apply", func() error {
		out = haee.ApplyMTScratch(team, blk, simi.Spec(), nt, simi.UDFScratch())
		return nil
	})
	_ = op.step("detect.find_events", func() error {
		regions = detect.FindEventsBanded(out, simi.Threshold, max(nch/8, 4))
		return nil
	})
	return out, regions
}

// writeArray stores a result the way the engine does: create the sized
// file, then positioned row writes.
func writeArray(path string, a *dasf.Array2D) error {
	pw, err := dasf.CreateData(path, dasf.Meta{"Producer": dasf.S("dassa-benchmark")}, a.Channels, a.Samples, dasf.Float64)
	if err != nil {
		return err
	}
	if err := pw.Close(); err != nil {
		return err
	}
	if pw, err = dasf.OpenForWrite(path); err != nil {
		return err
	}
	if err := pw.WriteRows(0, a); err != nil {
		pw.Close()
		return err
	}
	return pw.Close()
}

// window runs operations back to back until the deadline.
func (b *batch) window(d time.Duration, tr *tracer) *window {
	w := newWindow()
	for time.Since(w.start) < d || w.attempted == 0 {
		op := tr.op(b.name)
		st, err := b.runOnce(op)
		op.end()
		if err != nil {
			w.fail("analyze", "%v", err)
			continue
		}
		w.ok("analyze", st.wall)
		// core.Report's phase times against the measured wall.
		w.add("core_wall_ns", float64(st.wall))
		w.add("core_read_ns", parseDur(st.rep.Phases.Read))
		w.add("core_compute_ns", parseDur(st.rep.Phases.Compute))
		w.add("core_write_ns", parseDur(st.rep.Phases.Write))
		w.add("alloc_mb", st.allocMB)
	}
	w.elapsed = time.Since(w.start)
	return w
}

func parseDur(s string) float64 {
	d, _ := time.ParseDuration(s)
	return float64(d)
}
