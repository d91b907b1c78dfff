// Package arrayudf reimplements ArrayUDF (Dong et al., HPDC'17), the
// framework DASSA builds on: a distributed 2D array abstraction where a
// user-defined function expressed over a Stencil — a cell plus its
// structural neighborhood — is applied to every cell in parallel, with
// ghost zones sized to the stencil's reach so execution needs no mid-run
// communication. This package provides the original pure-MPI execution
// model (one process per core); package haee adds the paper's hybrid
// MPI+threads model on top of the same primitives.
package arrayudf

import (
	"fmt"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/pfs"
)

// Stencil is the UDF's window onto the distributed array: a current cell
// (channel, time) plus relative access to its neighborhood, like the
// paper's S(offset) notation. Out-of-range accesses clamp to the array
// edge, the usual boundary policy for seismic windows.
type Stencil struct {
	block *dasf.Array2D // local channels (with ghosts) × full time extent
	chOff int           // row index of "channel 0 of this rank's block" inside block
	ch    int           // current cell: rank-relative channel (0-based, ghost-free)
	t     int           // current cell: time index
	memo  any           // the UDF's, see Memo
}

// Value returns the current cell's value, S(0) in the paper.
func (s *Stencil) Value() float64 { return s.At(0, 0) }

// At returns the value at time offset dt and channel offset dch from the
// current cell, clamping at the block's edges.
func (s *Stencil) At(dt, dch int) float64 {
	ch := clamp(s.chOff+s.ch+dch, 0, s.block.Channels-1)
	t := clamp(s.t+dt, 0, s.block.Samples-1)
	return s.block.At(ch, t)
}

// Span returns the samples S(tLo:tHi, dch) — time offsets [tLo, tHi]
// inclusive on the channel dch away from the current one — the access
// pattern of the paper's Algorithm 2 (W = S(−M:M, 0), W1 = S(l−M:l+M, +K)).
//
// A range inside the time extent comes back as a sub-slice of the block
// row: nothing is copied and buf is not touched (nil will do). The slice is
// read-only and lives as long as the block. Only a range that crosses the
// first or last sample is materialized, clamped sample by sample, into
// buf[:tHi-tLo+1], which must have that capacity and is what Span returns
// (DESIGN.md §14).
func (s *Stencil) Span(buf []float64, tLo, tHi, dch int) []float64 {
	if tHi < tLo {
		panic(fmt.Sprintf("arrayudf: Span range [%d,%d] inverted", tLo, tHi))
	}
	row := s.Row(dch)
	lo, n := s.t+tLo, tHi-tLo+1
	if lo >= 0 && lo+n <= len(row) {
		return row[lo : lo+n : lo+n]
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = row[clamp(lo+i, 0, len(row)-1)]
	}
	return buf
}

// Row returns the full time series of the channel dch away from the
// current cell, without copying. Callers must not modify it.
func (s *Stencil) Row(dch int) []float64 {
	ch := clamp(s.chOff+s.ch+dch, 0, s.block.Channels-1)
	return s.block.Row(ch)
}

// T returns the current cell's time index and Channel its rank-relative
// channel index.
func (s *Stencil) T() int { return s.t }

// Channel returns the current cell's channel index relative to the rank's
// block start.
func (s *Stencil) Channel() int { return s.ch }

// SetPos repositions the stencil at owned channel ch and time index t, so
// a thread can reuse one stencil across its whole iteration range instead
// of allocating one per cell.
func (s *Stencil) SetPos(ch, t int) { s.ch, s.t = ch, t }

// Samples returns the time extent of the underlying array.
func (s *Stencil) Samples() int { return s.block.Samples }

// Memo returns the stencil's one UDF-owned slot, nil on a fresh stencil. A
// UDF keeps there what it wants to carry from one cell to the next of the
// sweep this stencil makes — partial sums of the row it is on, say. The slot
// lives and dies with the stencil: one thread, one apply loop, one block, so
// nothing in it is shared or outlives the data it was derived from. The
// engine never reads it, and whatever stencil evaluates a cell must get the
// same value: the slot holds a cache, and a UDF finding another's content
// there (or none) starts over.
func (s *Stencil) Memo() *any { return &s.memo }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// PointUDF maps a stencil to one output value — the f in B = Apply(A, f).
type PointUDF func(s *Stencil) float64

// Workload is the one value the engine runs (haee.Engine.Run): the f of
// B = Apply(A, f) with its geometry. A points workload (Algorithm 2 shape)
// sets UDFScratch; a rows workload (Algorithm 3 shape) sets UDFInto and
// RowLen, plus Prepare when the channels share data.
type Workload struct {
	Spec Spec
	// UDFScratch maps one cell to one value, thread-safely; scr is the calling
	// thread's arena for whatever the UDF cannot borrow from the block itself.
	UDFScratch func(s *Stencil, scr *daslib.Scratch) float64
	RowLen     int
	// Prepare runs once per MPI rank (per node in Hybrid mode, per core in
	// PureMPI) and returns the shared payload, its approximate size in bytes
	// and the I/O it performed — through the view, beyond the rank's block.
	Prepare func(c *mpi.Comm, v *dass.View) (shared any, bytes int64, tr pfs.Trace)
	// UDFInto writes one channel's row into the engine-owned dst (length
	// RowLen), thread-safely, borrowing work buffers from scr and never
	// handing back scratch-owned memory (DESIGN.md §14).
	UDFInto func(s *Stencil, shared any, dst []float64, scr *daslib.Scratch)
}

// OutSamples returns the output time extent for an input extent nt: the row
// length, or the strided cell count.
func (w Workload) OutSamples(nt int) int {
	if w.UDFInto != nil {
		return w.RowLen
	}
	return w.Spec.OutSamples(nt)
}

// Spec configures an Apply execution.
type Spec struct {
	// GhostChannels is the stencil's channel reach (K in Algorithm 2): each
	// rank's block is padded with this many channels on each side, so no
	// communication happens during execution.
	GhostChannels int
	// TimeStride evaluates the UDF every TimeStride samples (window hop).
	// 0 or 1 means every sample.
	TimeStride int
	// ReadStrategy selects how blocks are loaded; nil means each rank reads
	// its own extended block independently (the original ArrayUDF pattern).
	ReadStrategy ReadStrategy
	// FailPolicy decides whether a member file that stays bad after retries
	// aborts the world (default) or degrades into NaN-masked gaps plus a
	// QualityReport.
	FailPolicy dass.FailPolicy
}

// OutSamples returns the output time extent for an input extent nt.
func (sp Spec) OutSamples(nt int) int {
	stride := max(sp.TimeStride, 1)
	return (nt + stride - 1) / stride
}

// ReadStrategy loads one rank's channel block [chLo, chHi) (ghost-extended
// bounds, view-relative) over the view's full time extent. The policy says
// what to do with members that stay bad after retries; the QualityReport
// (non-nil on rank 0 under dass.FailDegrade) accounts for what was lost.
type ReadStrategy func(c *mpi.Comm, v *dass.View, chLo, chHi int, policy dass.FailPolicy) (*dasf.Array2D, pfs.Trace, *dass.QualityReport)

// IndependentRead is the default strategy: every rank issues its own
// hyperslab reads against the view (O(p×files) requests on a VCA). An
// empty channel range returns an empty array without touching storage.
func IndependentRead(c *mpi.Comm, v *dass.View, chLo, chHi int, policy dass.FailPolicy) (*dasf.Array2D, pfs.Trace, *dass.QualityReport) {
	var data *dasf.Array2D
	var local pfs.Trace
	var gaps []dass.Gap
	if chLo >= chHi {
		_, nt := v.Shape()
		data = dasf.NewArray2D(0, nt)
	} else {
		sub, err := v.SubsetChannels(chLo, chHi)
		if err != nil {
			panic(fmt.Errorf("arrayudf: ghost-extended subset: %w", err))
		}
		t0 := time.Now()
		d, tr, subGaps, err := sub.ReadPolicy(policy)
		obs.SpansFrom(v.Context()).Add(c.Rank(), obs.PhaseRead, time.Since(t0))
		if err != nil {
			panic(fmt.Errorf("arrayudf: block read: %w", err))
		}
		data = d
		local = tr
		// Lift sub-view gap channels into view coordinates for the report.
		for _, g := range subGaps {
			g.ChLo += chLo
			g.ChHi += chLo
			gaps = append(gaps, g)
		}
	}
	if policy != dass.FailDegrade {
		return data, local, nil
	}
	// Collective: every rank participates, empty partitions included.
	return data, local, dass.GatherQuality(c, v, gaps, local)
}

// Block is one rank's loaded portion of the array, ghost channels included.
type Block struct {
	Data  *dasf.Array2D
	ChLo  int // view-relative first owned (non-ghost) channel
	ChHi  int // view-relative past-the-end owned channel
	Ghost int // ghost width actually applied below ChLo
}

// LoadBlock reads the calling rank's ghost-extended channel block. The
// strategy runs on every rank — including ranks whose partition is empty —
// because strategies may contain collective operations. The QualityReport
// is non-nil only on rank 0 under dass.FailDegrade.
func LoadBlock(c *mpi.Comm, v *dass.View, spec Spec) (Block, pfs.Trace, *dass.QualityReport) {
	nch, _ := v.Shape()
	lo, hi := dass.Partition(nch, c.Size(), c.Rank())
	gLo := max(lo-spec.GhostChannels, 0)
	gHi := min(hi+spec.GhostChannels, nch)
	if lo >= hi {
		// Empty partition: request an empty range so the strategy still
		// participates in any collectives without reading data.
		gLo, gHi = lo, lo
	}
	blk := Block{ChLo: lo, ChHi: hi, Ghost: lo - gLo}
	read := spec.ReadStrategy
	if read == nil {
		read = IndependentRead
	}
	var tr pfs.Trace
	var q *dass.QualityReport
	blk.Data, tr, q = read(c, v, gLo, gHi, spec.FailPolicy)
	if lo >= hi {
		blk.Data = nil
	}
	return blk, tr, q
}

// Stencil returns a fresh stencil positioned at owned channel ch (ghost-
// free, rank-relative) and time index t. Each thread of a multithreaded
// Apply builds its own stencils, so evaluation needs no locking.
func (b Block) Stencil(ch, t int) *Stencil {
	return &Stencil{block: b.Data, chOff: b.Ghost, ch: ch, t: t}
}

// OwnedChannels returns how many channels the block owns (ghosts excluded).
func (b Block) OwnedChannels() int { return b.ChHi - b.ChLo }

// Result is a rank's output block from Apply: owned channels × output
// samples, plus the I/O trace (reduced to rank 0).
type Result struct {
	Data *dasf.Array2D
	ChLo int
	ChHi int
	// ReadTrace is the global read trace (rank 0 only).
	ReadTrace pfs.Trace
	// Quality accounts for degraded reads (rank 0 only, under
	// dass.FailDegrade; nil otherwise).
	Quality *dass.QualityReport
}

// Apply is the original ArrayUDF execution: every rank loads its
// ghost-extended block and evaluates udf at every (owned channel, strided
// time) cell sequentially. The result keeps the rank's rows; use
// dass.GatherBlocks-style collection or WriteResult to assemble.
func Apply(c *mpi.Comm, v *dass.View, spec Spec, udf PointUDF) Result {
	blk, tr, q := LoadBlock(c, v, spec)
	_, nt := v.Shape()
	outT := spec.OutSamples(nt)
	own := blk.OwnedChannels()
	res := Result{ChLo: blk.ChLo, ChHi: blk.ChHi, ReadTrace: tr, Quality: q, Data: dasf.NewArray2D(max(own, 0), outT)}
	if own <= 0 {
		return res
	}
	st := blk.Stencil(0, 0)
	stride := max(spec.TimeStride, 1)
	for ch := 0; ch < own; ch++ {
		// Channel rows are the sequential engine's tile boundary: a
		// cancelled view aborts between rows, and the panic unwinds
		// through mpi.Run as the context's error.
		if err := v.Context().Err(); err != nil {
			panic(fmt.Errorf("arrayudf: apply: %w", err))
		}
		st.ch = ch
		row := res.Data.Row(ch)
		for i := 0; i < outT; i++ {
			st.t = i * stride
			row[i] = udf(st)
		}
	}
	return res
}

// Gather assembles the per-rank results into the full output on rank 0
// (nil on other ranks).
func Gather(c *mpi.Comm, totalChannels int, res Result) *dasf.Array2D {
	var flat []float64
	if res.Data != nil {
		flat = res.Data.Data
	}
	parts := mpi.Gather(c, 0, flat)
	if c.Rank() != 0 {
		return nil
	}
	outT := 0
	if res.Data != nil {
		outT = res.Data.Samples
	}
	// All ranks share the output width; rank 0's is authoritative.
	out := dasf.NewArray2D(totalChannels, outT)
	for rank, part := range parts {
		lo, hi := dass.Partition(totalChannels, c.Size(), rank)
		for ch := lo; ch < hi; ch++ {
			copy(out.Row(ch), part[(ch-lo)*outT:(ch-lo+1)*outT])
		}
	}
	return out
}
