package arrayudf

import (
	"fmt"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/pfs"
)

// CommAvoidingRead combines the paper's two contributions in one path:
// blocks are loaded with the communication-avoiding VCA reader (O(files)
// whole-file reads + all-to-all, instead of O(ranks×files) independent
// requests), and the stencil's ghost channels are then filled by a halo
// exchange with the neighboring ranks — one message per boundary instead
// of re-reading boundary channels from disk. Use it as Spec.ReadStrategy
// or haee.Config.ReadStrategy.
//
// If the nominal ghost width exceeds the smallest partition (tiny blocks
// on a huge world), a halo would have to traverse multiple ranks; the
// strategy then falls back to independent reads. The branch is decided
// from globally agreed quantities, so all ranks take it together.
func CommAvoidingRead(c *mpi.Comm, v *dass.View, chLo, chHi int, policy dass.FailPolicy) (*dasf.Array2D, pfs.Trace, *dass.QualityReport) {
	nch, nt := v.Shape()
	p := c.Size()
	rank := c.Rank()
	ownLo, ownHi := dass.Partition(nch, p, rank)
	ghostLo := ownLo - chLo // rows wanted below my block (edge-clamped)
	ghostHi := chHi - ownHi // rows wanted above my block (edge-clamped)
	if ghostLo < 0 || ghostHi < 0 {
		panic(fmt.Sprintf("arrayudf: comm-avoiding strategy expects a ghost-extended request around [%d,%d), got [%d,%d)",
			ownLo, ownHi, chLo, chHi))
	}
	// The nominal (unclamped) ghost width, agreed across the world.
	nominalV := mpi.Allreduce(c, []int64{int64(max(ghostLo, ghostHi))}, mpi.MaxI64)
	nominal := int(nominalV[0])
	if minBlock := nch / p; minBlock == 0 || nominal > minBlock {
		return IndependentRead(c, v, chLo, chHi, policy)
	}

	blk, tr, q := dass.ReadCommAvoidingPolicy(c, v, policy)
	own := blk.Data // my partition's rows over the full time extent

	out := dasf.NewArray2D(chHi-chLo, nt)
	for ch := ownLo; ch < ownHi; ch++ {
		copy(out.Row(ch-chLo), own.Row(ch-ownLo))
	}
	if nominal == 0 || p == 1 {
		return out, tr, q
	}

	const (
		tagDown = 101 // payload travels to the next rank (their low ghost)
		tagUp   = 102 // payload travels to the previous rank (their high ghost)
	)
	// The halo messages are the exchange cost this strategy adds on top of
	// the reader's all-to-all; the recorder folds both into PhaseExchange.
	tHalo := time.Now()
	defer func() { obs.SpansFrom(v.Context()).Add(rank, obs.PhaseExchange, time.Since(tHalo)) }()
	width := ownHi - ownLo
	send := min(nominal, width)
	// Everyone with a neighbor sends `send` boundary rows; receivers keep
	// the edge-adjacent subset their (clamped) ghost actually needs.
	if rank+1 < p {
		rows := make([]float64, 0, send*nt)
		for ch := ownHi - send; ch < ownHi; ch++ {
			rows = append(rows, own.Row(ch-ownLo)...)
		}
		mpi.Send(c, rank+1, tagDown, rows)
	}
	if rank > 0 {
		rows := make([]float64, 0, send*nt)
		for ch := ownLo; ch < ownLo+send; ch++ {
			rows = append(rows, own.Row(ch-ownLo)...)
		}
		mpi.Send(c, rank-1, tagUp, rows)
	}
	if rank > 0 {
		rows := mpi.Recv[float64](c, rank-1, tagDown)
		nrows := len(rows) / nt
		// The payload's last row is channel ownLo-1; keep my ghostLo rows.
		for i := 0; i < ghostLo; i++ {
			srcRow := nrows - ghostLo + i
			dstCh := ownLo - ghostLo + i
			copy(out.Row(dstCh-chLo), rows[srcRow*nt:(srcRow+1)*nt])
		}
	}
	if rank+1 < p {
		rows := mpi.Recv[float64](c, rank+1, tagUp)
		// The payload's first row is channel ownHi; keep my ghostHi rows.
		for i := 0; i < ghostHi; i++ {
			dstCh := ownHi + i
			copy(out.Row(dstCh-chLo), rows[i*nt:(i+1)*nt])
		}
	}
	// NaN-masked gaps ride the halo exchange like any other rows, so ghost
	// channels of a degraded neighbor are masked too.
	return out, tr, q
}
