package dass

import (
	"fmt"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/pfs"
)

// Partition splits n items into p near-equal contiguous blocks and returns
// block rank's bounds. The DASSA analysis partitions channels this way.
func Partition(n, p, rank int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

// Block is one rank's share of a parallel read: channels [ChLo, ChHi) of
// the view, over the view's entire time extent.
type Block struct {
	Data *dasf.Array2D
	// ChLo and ChHi are view-relative channel bounds of this rank's block.
	ChLo, ChHi int
}

// traceVec flattens a trace for an MPI reduction.
func traceVec(tr pfs.Trace) []int64 {
	return []int64{tr.Opens, tr.Reads, tr.BytesRead, tr.Writes, tr.BytesWritten,
		tr.Broadcasts, tr.BcastBytes, tr.ExchangeRounds, tr.ExchangeBytes,
		tr.Retries, tr.Faults, tr.SlowReads, tr.MaskedSamples}
}

// reduceTrace sums per-rank traces to rank 0. Other ranks get a zero trace.
func reduceTrace(c *mpi.Comm, tr pfs.Trace) pfs.Trace {
	sum := mpi.Reduce(c, 0, traceVec(tr), mpi.SumI64)
	if c.Rank() != 0 {
		return pfs.Trace{}
	}
	return pfs.Trace{
		Opens: sum[0], Reads: sum[1], BytesRead: sum[2], Writes: sum[3], BytesWritten: sum[4],
		Broadcasts: sum[5], BcastBytes: sum[6], ExchangeRounds: sum[7], ExchangeBytes: sum[8],
		Retries: sum[9], Faults: sum[10], SlowReads: sum[11], MaskedSamples: sum[12],
		Processes: c.Size(),
	}
}

// GatherQuality gathers per-rank degrade gaps to rank 0 and builds the
// run's QualityReport there (nil on other ranks). It is a collective —
// every rank must call it, with its own local gaps and local (unreduced)
// trace; the robustness counters are reduced internally.
func GatherQuality(c *mpi.Comm, v *View, gaps []Gap, local pfs.Trace) *QualityReport {
	sum := mpi.Reduce(c, 0, []int64{local.Retries, local.Faults, local.SlowReads}, mpi.SumI64)
	flatGaps := mpi.Gather(c, 0, encodeGaps(gaps))
	if c.Rank() != 0 {
		return nil
	}
	var all []Gap
	for _, fg := range flatGaps {
		all = append(all, decodeGaps(fg, v)...)
	}
	return buildReport(all, v, pfs.Trace{Retries: sum[0], Faults: sum[1], SlowReads: sum[2]})
}

// finishRead is the common tail of every parallel reader: reduce the trace,
// then (under FailDegrade — world-uniform, so the collectives stay aligned)
// gather the gaps and build the QualityReport on rank 0.
func finishRead(c *mpi.Comm, v *View, blk Block, local pfs.Trace, gaps []Gap, policy FailPolicy) (Block, pfs.Trace, *QualityReport) {
	tr := reduceTrace(c, local)
	if policy != FailDegrade {
		return blk, tr, nil
	}
	return blk, tr, GatherQuality(c, v, gaps, local)
}

// ReadIndependent is the naive parallel strategy: every rank reads its own
// channel block straight from the underlying file(s) with independent
// hyperslab requests. On an RCA (one big file) this is the standard
// optimized pattern; on a VCA it issues O(p×n) small requests — the
// pathology §IV-B describes. Returns each rank's block; the globally
// reduced trace is returned on rank 0.
//
// Under FailAbort an I/O failure panics: the whole world must abort
// together (mpi.Run reports it as a *mpi.RankError), because a rank that
// bailed out quietly would deadlock its peers at the next collective.
func ReadIndependent(c *mpi.Comm, v *View) (Block, pfs.Trace) {
	blk, tr, _ := ReadIndependentPolicy(c, v, FailAbort)
	return blk, tr
}

// ReadIndependentPolicy is ReadIndependent with an explicit fail policy:
// under FailDegrade a member that stays bad after retries becomes a
// NaN-masked gap in this rank's block and a QualityReport entry on rank 0.
func ReadIndependentPolicy(c *mpi.Comm, v *View, policy FailPolicy) (Block, pfs.Trace, *QualityReport) {
	nch, _ := v.Shape()
	lo, hi := Partition(nch, c.Size(), c.Rank())
	blk := Block{ChLo: lo, ChHi: hi}
	var local pfs.Trace
	var gaps []Gap
	if lo < hi {
		sub, err := v.SubsetChannels(lo, hi)
		if err != nil {
			panic(fmt.Errorf("dass: independent read: %w", err))
		}
		t0 := time.Now()
		data, tr, subGaps, err := sub.ReadPolicy(policy)
		obs.SpansFrom(v.Context()).Add(c.Rank(), obs.PhaseRead, time.Since(t0))
		if err != nil {
			panic(fmt.Errorf("dass: independent read: %w", err))
		}
		blk.Data = data
		local = tr
		// Sub-view gaps are relative to this rank's channel block; lift them
		// into view coordinates before the gather.
		for _, g := range subGaps {
			g.ChLo += lo
			g.ChHi += lo
			gaps = append(gaps, g)
		}
	}
	return finishRead(c, v, blk, local, gaps, policy)
}

// ReadCollectivePerFile is the baseline from Figure 5a: all processes share
// each member file one at a time; an aggregator rank reads the file's slab
// with one large request and broadcasts it, and every rank keeps its own
// channel rows. One broadcast per file is exactly the cost the paper
// blames for this method's poor scaling.
func ReadCollectivePerFile(c *mpi.Comm, v *View) (Block, pfs.Trace) {
	blk, tr, _ := ReadCollectivePerFilePolicy(c, v, FailAbort)
	return blk, tr
}

// ReadCollectivePerFilePolicy is ReadCollectivePerFile with an explicit
// fail policy. Under FailDegrade the aggregator broadcasts a NaN-filled
// slab for a member that stays bad, so every rank masks the same span.
func ReadCollectivePerFilePolicy(c *mpi.Comm, v *View, policy FailPolicy) (Block, pfs.Trace, *QualityReport) {
	p := c.Size()
	nch, nt := v.Shape()
	lo, hi := Partition(nch, p, c.Rank())
	blk := Block{ChLo: lo, ChHi: hi, Data: dasf.NewArray2D(hi-lo, nt)}
	var local pfs.Trace
	var gaps []Gap
	rec := obs.SpansFrom(v.Context())
	for _, sp := range v.memberSpans() {
		// File boundaries are the collective's natural cancellation points:
		// every rank hits the same check before the same broadcast, so the
		// world panics together and mpi.Run drains it without deadlock.
		if err := v.Context().Err(); err != nil {
			panic(fmt.Errorf("dass: collective read: %w", err))
		}
		root := sp.idx % p
		var flat []float64
		width := sp.tHi - sp.tLo
		if c.Rank() == root {
			// The broadcast needs the member's slab as one buffer.
			flat = make([]float64, nch*width)
			tRead := time.Now()
			err := v.readMemberSpan(sp, flat, width, &local)
			rec.Add(c.Rank(), obs.PhaseRead, time.Since(tRead))
			if err != nil {
				if policy.fatal(err) {
					panic(fmt.Errorf("dass: collective read: %w", err))
				}
				gaps = append(gaps, v.maskSpan(sp, flat, width, &local))
			}
			local.Broadcasts++
			local.BcastBytes += int64(len(flat)) * 8
		}
		tEx := time.Now()
		flat = mpi.Bcast(c, root, flat)
		rec.Add(c.Rank(), obs.PhaseExchange, time.Since(tEx))
		// Keep only this rank's channel rows.
		for ch := lo; ch < hi; ch++ {
			src := flat[ch*width : (ch+1)*width]
			dst := blk.Data.Row(ch - lo)
			copy(dst[sp.destOff:sp.destOff+width], src)
		}
	}
	return finishRead(c, v, blk, local, gaps, policy)
}

// ReadCommAvoiding is the paper's communication-avoiding method (Figure
// 5b): member files are dealt round-robin to ranks; each rank reads its
// whole file with a single contiguous request, and one all-to-all exchange
// per round redistributes channel rows so every rank ends up with its
// channel block over the full time axis. For n files on p ranks this is
// O(n) large reads and O(n/p) exchanges — no broadcasts at all.
func ReadCommAvoiding(c *mpi.Comm, v *View) (Block, pfs.Trace) {
	blk, tr, _ := ReadCommAvoidingPolicy(c, v, FailAbort)
	return blk, tr
}

// ReadCommAvoidingPolicy is ReadCommAvoiding with an explicit fail policy.
// Under FailDegrade the rank that owns a member that stays bad exchanges
// NaN rows in its place — the masking rides the normal all-to-all, so no
// extra collective is needed and surviving channels are untouched.
func ReadCommAvoidingPolicy(c *mpi.Comm, v *View, policy FailPolicy) (Block, pfs.Trace, *QualityReport) {
	p := c.Size()
	rank := c.Rank()
	nch, nt := v.Shape()
	lo, hi := Partition(nch, p, rank)
	blk := Block{ChLo: lo, ChHi: hi, Data: dasf.NewArray2D(hi-lo, nt)}
	var local pfs.Trace
	var gaps []Gap
	rec := obs.SpansFrom(v.Context())
	spans := v.memberSpans()
	rounds := (len(spans) + p - 1) / p
	for r := 0; r < rounds; r++ {
		// Exchange-round boundaries are the halo-exchange cancellation
		// points: all ranks observe the same check before the round's
		// Alltoallv, so a cancelled world aborts in lockstep.
		if err := v.Context().Err(); err != nil {
			panic(fmt.Errorf("dass: comm-avoiding read: %w", err))
		}
		// Personalized exchange: destination d gets its channel rows from my
		// file. Ranks own contiguous channel ranges, so each send block is a
		// sub-slice of the one buffer the member was decoded into.
		send := make([][]float64, p)
		if myIdx := r*p + rank; myIdx < len(spans) {
			sp := spans[myIdx]
			width := sp.tHi - sp.tLo
			mine := make([]float64, nch*width)
			tRead := time.Now()
			err := v.readMemberSpan(sp, mine, width, &local)
			rec.Add(rank, obs.PhaseRead, time.Since(tRead))
			if err != nil {
				if policy.fatal(err) {
					panic(fmt.Errorf("dass: comm-avoiding read: %w", err))
				}
				gaps = append(gaps, v.maskSpan(sp, mine, width, &local))
			}
			for d := 0; d < p; d++ {
				dLo, dHi := Partition(nch, p, d)
				if dLo >= dHi {
					continue
				}
				send[d] = mine[dLo*width : dHi*width]
				if d != rank {
					local.ExchangeBytes += int64(dHi-dLo) * int64(width) * 8
				}
			}
		}
		if rank == 0 {
			local.ExchangeRounds += int64(p - 1)
		}
		tEx := time.Now()
		recv := mpi.Alltoallv(c, send)
		rec.Add(rank, obs.PhaseExchange, time.Since(tEx))
		// Place every source's contribution at its file's time offset.
		for s := 0; s < p; s++ {
			srcIdx := r*p + s
			if srcIdx >= len(spans) || len(recv[s]) == 0 {
				continue
			}
			sp := spans[srcIdx]
			width := sp.tHi - sp.tLo
			for ch := lo; ch < hi; ch++ {
				rowOff := (ch - lo) * width
				dst := blk.Data.Row(ch - lo)
				copy(dst[sp.destOff:sp.destOff+width], recv[s][rowOff:rowOff+width])
			}
		}
	}
	return finishRead(c, v, blk, local, gaps, policy)
}

// GatherBlocks reassembles per-rank blocks into the full view array on rank
// 0 (nil elsewhere). Used by tests and by writers of final results.
func GatherBlocks(c *mpi.Comm, v *View, blk Block) *dasf.Array2D {
	nch, nt := v.Shape()
	var flat []float64
	if blk.Data != nil {
		flat = blk.Data.Data
	}
	parts := mpi.Gather(c, 0, flat)
	if c.Rank() != 0 {
		return nil
	}
	out := dasf.NewArray2D(nch, nt)
	for rank, part := range parts {
		lo, hi := Partition(nch, c.Size(), rank)
		for ch := lo; ch < hi; ch++ {
			copy(out.Row(ch), part[(ch-lo)*nt:(ch-lo+1)*nt])
		}
	}
	return out
}
