package detect

import (
	"slices"

	"dassa/internal/arrayudf"
)

// Windows from partial sums (DESIGN.md §14). The cells of a row sit every
// stride samples and their windows overlap, so a row is cut into segments at
// every position a window of an on-grid cell can start or end, each
// segment's sums are computed once, and a window is the sum of the segments
// it covers, added in segment order. Positions count from the view's first
// sample — blocks always carry the full time extent — so what a segment
// holds depends only on where it is, never on which thread, rank or shard
// filled it, and neither does any window assembled from it.

// maxRingFloats caps a segment ring at 256 KB, a core's share of L2, so that
// no parameter sizes one beyond it: a detector asking for more (a wide lag
// scan at a stride of a few samples) scans every window directly.
const maxRingFloats = 1 << 15

// recordPerSamples is what adding one segment record into a window costs,
// in samples of the direct scan (measured at the 250 Hz defaults: 27 ns a
// record, 11 ns a sample). A window of many short segments — a stride of a
// few samples, down to the paper's literal per-sample map — is cheaper
// scanned than folded, and is.
const recordPerSamples = 3

// segGrid is one detector's segment geometry, fixed by its parameters: the
// window edges of the on-grid cell i·stride sit at fixed offsets from it, so
// the boundaries are the positions congruent to some edge modulo the stride
// and, with n distinct residues, boundary number i·n + off[e] is edge e of
// cell i. The first and the last edge span the ring.
type segGrid struct {
	stride int
	gap    []int // gap[k]: length of a segment starting at the k-th of the distinct edge residues modulo stride
	off    []int // boundary number of edge e at cell 0
	start  int   // the first edge's offset from the cell, and
	k0     int   // which residue it is
	rec    int   // floats per segment record
	slots  int   // ring capacity: the segments between the first and last edge, rounded up to a power of two
	// partials says windows are assembled from partial sums: that is less
	// work than scanning them, and the ring stays within maxRingFloats. It
	// follows from the parameters alone, like everything here, so it is the
	// same for every cell of a run whatever the layout.
	partials bool
}

// newSegGrid lays out the grid for windows whose edges (first sample, or one
// past the last) sit at the given ascending offsets from an on-grid cell;
// every segment carries rec sums.
func newSegGrid(stride, rec int, edges ...int) *segGrid {
	g := &segGrid{stride: stride, rec: rec, start: edges[0], off: make([]int, len(edges))}
	res := make([]int, len(edges))
	for e, off := range edges {
		res[e] = ((off % stride) + stride) % stride
	}
	uniq := slices.Clone(res)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	g.gap = make([]int, len(uniq))
	for k, r := range uniq {
		g.gap[k] = uniq[(k+1)%len(uniq)] - r
	}
	g.gap[len(uniq)-1] += stride
	for e, off := range edges {
		g.off[e] = (off-res[e])/stride*len(uniq) + slices.Index(uniq, res[e])
	}
	g.k0 = slices.Index(uniq, res[0])
	last := len(edges) - 1
	segs, width := g.off[last]-g.off[0], edges[last]-edges[0]
	for g.slots = 1; g.slots < segs && g.slots*rec <= maxRingFloats; g.slots *= 2 {
	}
	g.partials = stride+recordPerSamples*segs <= width && g.slots*rec <= maxRingFloats
	return g
}

// boundary returns the boundary number of edge e at the on-grid cell i.
func (g *segGrid) boundary(e, i int) int { return i*len(g.gap) + g.off[e] }

// segMemo is what a detector keeps in the stencil's memo slot: the records
// of the segments under the current window, in a ring. Segments [lo, hi)
// are held; the next to fill starts at sample hiPos, the hiK-th residue.
type segMemo struct {
	grid   *segGrid // whose geometry filled the ring: another detector starts over
	row    int      // stencil channel the sums describe
	lo, hi int
	end    int // boundary number the current window ends on
	hiPos  int
	hiK    int
	ring   []float64 // slots records; segment q lives in slot q mod slots
	acc    []float64 // one record: the sums sum returns
}

// memo returns the ring this grid keeps on s, a fresh one if the stencil is
// new or last served another detector.
func (g *segGrid) memo(s *arrayudf.Stencil) *segMemo {
	slot := s.Memo()
	if m, ok := (*slot).(*segMemo); ok && m.grid == g {
		return m
	}
	buf := make([]float64, (g.slots+1)*g.rec)
	m := &segMemo{grid: g, row: -1, ring: buf[g.rec:], acc: buf[:g.rec]}
	*slot = m
	return m
}

// seek moves the ring to the window of on-grid cell i of row. Whatever it
// holds of that window stays — a sweep's next cell keeps all but the
// segments the stride brought in; a new row, a step backwards or a jump
// past the held range starts the window over. It returns the window's
// boundary numbers [lo, end); next hands out the segments still to fill.
func (m *segMemo) seek(row, i int) (lo, end int) {
	g := m.grid
	lo, end = g.boundary(0, i), g.boundary(len(g.off)-1, i)
	if row != m.row || lo < m.lo || lo > m.hi {
		m.row = row
		m.hi, m.hiPos, m.hiK = lo, i*g.stride+g.start, g.k0
	}
	m.lo, m.end = lo, end
	return lo, end
}

// next returns the record and the sample range [a, b) of the window's next
// unfilled segment, ok=false once the window is whole. The caller writes the
// segment's sums into rec before calling next again.
func (m *segMemo) next() (rec []float64, a, b int, ok bool) {
	if m.hi >= m.end {
		return nil, 0, 0, false
	}
	g := m.grid
	rec = m.record(m.hi)
	a, b = m.hiPos, m.hiPos+g.gap[m.hiK]
	m.hi, m.hiPos = m.hi+1, b
	if m.hiK++; m.hiK == len(g.gap) {
		m.hiK = 0
	}
	return rec, a, b, true
}

func (m *segMemo) record(q int) []float64 {
	at := q & (m.grid.slots - 1) * m.grid.rec
	return m.ring[at : at+m.grid.rec : at+m.grid.rec]
}

// sum adds the records of segments [lo, hi), each of them held, in segment
// order from zero — the one order any stencil uses, so equal windows get
// equal sums. The result is valid until the next sum.
func (m *segMemo) sum(lo, hi int) []float64 {
	acc, rec, slots := m.acc, m.grid.rec, m.grid.slots
	// The window's records are contiguous in the ring but for one wrap. The
	// two runs are spelled out below: ranging over a pair of them measured
	// 15 % on the STA/LTA cell.
	first, n := lo&(slots-1), hi-lo
	head := min(n, slots-first)
	a, b := m.ring[first*rec:(first+head)*rec], m.ring[:(n-head)*rec]
	// A record of one sum (STA/LTA's energy) adds up in a register; longer
	// ones (local similarity's lags) are added record by record, their
	// chains interleaved. Each sum is the same chain of additions either way.
	if rec == 1 {
		var s float64
		for _, v := range a {
			s += v
		}
		for _, v := range b {
			s += v
		}
		acc[0] = s
		return acc
	}
	clear(acc)
	for ; len(a) > 0; a = a[rec:] {
		for j, v := range a[:len(acc)] {
			acc[j] += v
		}
	}
	for ; len(b) > 0; b = b[rec:] {
		for j, v := range b[:len(acc)] {
			acc[j] += v
		}
	}
	return acc
}
