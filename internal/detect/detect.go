// Package detect implements the paper's two case studies (§V.C) as
// ArrayUDF user-defined functions: earthquake detection via local
// similarity (Algorithm 2) and traffic-noise interferometry (Algorithm 3),
// plus small utilities to verify detections against planted events.
package detect

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/pfs"
)

// LocalSimiParams configures Algorithm 2. Windows have width 2M+1 samples;
// the two compared channels sit ±K channels away; 2L+1 window positions are
// scanned on each neighbor.
type LocalSimiParams struct {
	M int `json:"m" key:"M" help:"half window width (samples; default rate/4)"`
	K int `json:"k" key:"K" help:"channel offset to the two compared neighbours (default 1)"`
	L int `json:"l" key:"L" help:"half lag-scan extent (samples; default 4)"`
	// Stride evaluates the similarity every Stride samples (0/1 = all).
	Stride int `json:"stride" key:"stride" help:"evaluate every N samples (default rate/5)"`
}

// Op names the registered operation these parameters belong to (ops.go).
func (LocalSimiParams) Op() string { return DefaultOp }

// ErrBadParams marks a detector parameter set refused by Validate, so
// callers at a trust boundary can answer "bad request" rather than "failed".
var ErrBadParams = errors.New("detect: bad parameters")

// Validate checks the parameters against the nch × nt view they are to run
// on. Everything the detector sizes from them — ghost rows, edge buffers,
// the output extent — is bounded by the view here, before anything is
// borrowed: the whole lag scan of one cell fits the time extent, a neighbour
// exists, and the stride leaves at least one cell.
func (p LocalSimiParams) Validate(nch, nt int) error {
	if p.M < 1 || p.K < 1 || p.L < 0 {
		return fmt.Errorf("%w: local similarity needs M≥1, K≥1, L≥0: %+v", ErrBadParams, p)
	}
	// 2(M+L)+1 ≤ nt, written so that no sum can overflow.
	if half := (nt - 1) / 2; nt < 1 || p.M > half || p.L > half-p.M || p.K >= nch || p.Stride > nt {
		return fmt.Errorf("%w: local similarity %+v does not fit a %d×%d view (needs 2(M+L)+1 ≤ samples, K < channels, stride ≤ samples)",
			ErrBadParams, p, nch, nt)
	}
	return nil
}

// Spec returns the ArrayUDF spec for these parameters: the stencil reaches
// K channels away, so blocks carry K ghost channels.
func (p LocalSimiParams) Spec() arrayudf.Spec {
	return arrayudf.Spec{GhostChannels: p.K, TimeStride: p.Stride}
}

// Workload returns Algorithm 2 as the points workload the engine runs.
func (p LocalSimiParams) Workload(int) arrayudf.Workload {
	return arrayudf.Workload{Spec: p.Spec(), UDFScratch: p.UDFScratch()}
}

// TimeReach is the lag scan's span, M+L samples either side: UDFScratch
// scans a cell whose span would cross a time edge directly, on clamped
// copies, and assembles any other from the samples inside it.
func (p LocalSimiParams) TimeReach() (back, fwd int) { return p.M + p.L, p.M + p.L }

// grid cuts a row where on-grid windows start (−M) and end (M+1); a segment
// record is ‖W‖² and, per neighbour, every lag's dot product and squared
// norm.
func (p LocalSimiParams) grid() *segGrid {
	return newSegGrid(max(p.Stride, 1), 1+4*(2*p.L+1), -p.M, p.M+1)
}

// UDFScratch returns Algorithm 2 as a point UDF: the local similarity of the
// current cell's window against the best-aligned windows of its ±K channel
// neighbors, with the cell's temporaries borrowed from scr (nil allocates
// fresh). NaN-masked gaps (degraded reads) are skipped, not correlated: a
// cell whose own window is masked scores 0, and masked neighbor windows
// contribute nothing — so gaps can never manufacture a detection.
//
// A cell on the stride grid whose lag scan stays clear of both time edges is
// assembled from partial sums (segments.go): the row is cut where on-grid
// windows start (−M modulo the stride) and end (M+1), each segment's ‖W‖², and per
// neighbour and lag its dot product and squared norm (daslib.LagPartials),
// are computed once and kept in the stencil's memo, and a sweep's next cell
// fills only the segments its stride brought in — every lagged product
// computed once, not once per window covering it. All sums are additive, so
// a NaN or ±Inf reaches exactly the windows that contain it and a dead
// channel still scores exactly 0. Cells near a time edge, whose spans clamp,
// cells off the grid, and every cell when the stride is so short that a
// window is cheaper scanned than folded (segGrid.partials) are the
// one-segment case, scanned directly.
//
// Values agree with the per-lag AbsCorr loop to ≤ 1e-12 (the order of
// addition differs), bit for bit in the one-segment case.
func (p LocalSimiParams) UDFScratch() func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
	width, reach, lags := 2*p.M+1, p.M+p.L, 2*p.L+1
	span := 2*reach + 1
	stride, grid := max(p.Stride, 1), p.grid()
	// direct scans whole windows borrowed from the block in place
	// (arrayudf.Stencil.Span); only near a time edge, where the spans need
	// clamped copies, does it borrow from the scratch arena.
	direct := func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		var edge, wBuf, plusBuf, minusBuf []float64
		if t := s.T(); t < reach || t+reach >= s.Samples() {
			edge = scr.Float(width + 2*span)
			wBuf, plusBuf, minusBuf = edge[:width], edge[width:width+span], edge[width+span:]
		}
		var sim float64
		w := s.Span(wBuf, -p.M, p.M, 0)
		// A NaN squared norm is a masked window: the cell scores 0.
		if wSq := daslib.SumSquares(w); !math.IsNaN(wSq) {
			cPlus := daslib.MaxAbsCorrLags(w, wSq, s.Span(plusBuf, -reach, reach, +p.K))
			cMinus := daslib.MaxAbsCorrLags(w, wSq, s.Span(minusBuf, -reach, reach, -p.K))
			sim = (cPlus + cMinus) / 2
		}
		scr.ReleaseFloat(edge)
		return sim
	}
	return func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		t := s.T()
		if !grid.partials || t < reach || t+reach >= s.Samples() || t%stride != 0 {
			return direct(s, scr)
		}
		m := grid.memo(s)
		lo, end := m.seek(s.Channel(), t/stride)
		centre, plus, minus := s.Row(0), s.Row(+p.K), s.Row(-p.K)
		for rec, a, b, ok := m.next(); ok; rec, a, b, ok = m.next() {
			w := centre[a:b]
			rec[0] = daslib.SumSquares(w)
			daslib.LagPartials(rec[1:1+lags], rec[1+lags:1+2*lags], w, plus[a-p.L:b+p.L])
			daslib.LagPartials(rec[1+2*lags:1+3*lags], rec[1+3*lags:], w, minus[a-p.L:b+p.L])
		}
		sums := m.sum(lo, end)
		wSq := sums[0]
		if math.IsNaN(wSq) {
			return 0
		}
		cPlus := daslib.MaxAbsCorrPartials(0, wSq, sums[1:1+lags], sums[1+lags:1+2*lags])
		cMinus := daslib.MaxAbsCorrPartials(0, wSq, sums[1+2*lags:1+3*lags], sums[1+3*lags:])
		return (cPlus + cMinus) / 2
	}
}

// InterferometryParams configures Algorithm 3: the ambient-noise
// interferometry pipeline that turns raw DAS data into noise correlations
// against a master channel.
type InterferometryParams struct {
	// Rate is the input sampling rate in Hz.
	Rate float64 `json:"rate"`
	// FilterOrder and CutoffHz define the Butterworth lowpass
	// Das_butter(n, fc) applied with Das_filtfilt.
	FilterOrder int     `json:"filter_order"`
	CutoffHz    float64 `json:"cutoff_hz" key:"cutoff" help:"lowpass cutoff Hz (default rate/8)"`
	// ResampleP/ResampleQ change the rate by P/Q after filtering
	// (Das_resample).
	ResampleP int `json:"resample_p"`
	ResampleQ int `json:"resample_q" key:"resample" help:"keep 1/Q of the samples (default 2)"`
	// MasterChannel is the view-relative channel every channel is
	// correlated against.
	MasterChannel int `json:"master_channel" key:"master" help:"master channel, view-relative (default 0)"`
	// MaxLag limits the correlation output to ±MaxLag samples (at the
	// resampled rate). Zero keeps the full correlation.
	MaxLag int `json:"max_lag" key:"maxlag" help:"correlation half-width (resampled samples; default 128)"`
	// failPolicy governs the read the workload performs itself (the master
	// channel, see SetFailPolicy). It is the run's, not a parameter: no key
	// sets it and it does not cross the wire.
	failPolicy dass.FailPolicy
}

// Op names the registered operation these parameters belong to (ops.go).
func (InterferometryParams) Op() string { return "interferometry" }

// SetFailPolicy decides the one read the workload performs itself: under
// dass.FailDegrade a master channel whose member file stays bad is
// zero-filled over the gap instead of aborting the run.
func (p *InterferometryParams) SetFailPolicy(policy dass.FailPolicy) { p.failPolicy = policy }

// Validate checks the parameters against the nch × nt view they are to run
// on, before anything is read: the filter design is realisable, the master
// channel is inside the view, and a row outlasts the zero-phase filter's
// edge padding (three samples per filter order at each end).
func (p InterferometryParams) Validate(nch, nt int) error {
	if p.Rate <= 0 || p.FilterOrder < 1 || p.CutoffHz <= 0 || p.CutoffHz >= p.Rate/2 {
		return fmt.Errorf("%w: bad filter config %+v", ErrBadParams, p)
	}
	if p.ResampleP < 1 || p.ResampleQ < 1 {
		return fmt.Errorf("%w: bad resample factors %d/%d", ErrBadParams, p.ResampleP, p.ResampleQ)
	}
	if p.MaxLag < 0 {
		return fmt.Errorf("%w: negative MaxLag", ErrBadParams)
	}
	if p.MasterChannel < 0 || p.MasterChannel >= nch {
		return fmt.Errorf("%w: master channel %d outside the view (%d channels)", ErrBadParams, p.MasterChannel, nch)
	}
	if nt <= 3*p.FilterOrder {
		return fmt.Errorf("%w: %d samples are too few for an order-%d zero-phase filter", ErrBadParams, nt, p.FilterOrder)
	}
	return nil
}

// preprocessor is the filter design of PreprocessInto, built once per
// parameter set: Butter runs a polynomial root expansion and FilterPlan a
// companion-matrix solve, neither of which belongs in the per-channel
// loop. InterferometryParams is a comparable value type, so it keys the
// cache directly.
type preprocessor struct {
	fp *daslib.FilterPlan
}

var prepCache = struct {
	sync.RWMutex
	m map[InterferometryParams]*preprocessor
}{m: map[InterferometryParams]*preprocessor{}}

func (p InterferometryParams) preprocessor() (*preprocessor, error) {
	prepCache.RLock()
	pp, ok := prepCache.m[p]
	prepCache.RUnlock()
	if ok {
		return pp, nil
	}
	b, a, err := daslib.Butter(p.FilterOrder, daslib.Lowpass, p.CutoffHz/(p.Rate/2))
	if err != nil {
		return nil, err
	}
	fp, err := daslib.NewFilterPlan(b, a)
	if err != nil {
		return nil, err
	}
	pp = &preprocessor{fp: fp}
	prepCache.Lock()
	if have, ok := prepCache.m[p]; ok {
		pp = have
	} else {
		prepCache.m[p] = pp
	}
	prepCache.Unlock()
	return pp, nil
}

// preprocessInto runs the chain into dst, borrowing every intermediate from
// s: x is detrended into a working copy (NaN read as zero), which is
// filtered in place and resampled into dst.
func (pp *preprocessor) preprocessInto(dst, x []float64, p InterferometryParams, s *daslib.Scratch) error {
	w := s.Float(len(x))
	daslib.DetrendInto(w, x)
	if err := pp.fp.FiltFiltInto(w, w, s); err != nil {
		return err
	}
	err := daslib.ResampleInto(dst, w, p.ResampleP, p.ResampleQ, s)
	s.ReleaseFloat(w)
	return err
}

// PreprocessInto is the per-channel front half of Algorithm 3: detrend,
// zero-phase lowpass, resample, written into dst (length
// daslib.ResampleLen(len(x), ResampleP, ResampleQ)) with all intermediates
// borrowed from s. It is applied identically to the master channel and to
// every analyzed channel. NaN gap markers from degraded reads are treated as
// silence (zero) so the filters stay finite; clean input passes through
// bit-identically.
func (p InterferometryParams) PreprocessInto(dst, x []float64, s *daslib.Scratch) error {
	pp, err := p.preprocessor()
	if err != nil {
		return err
	}
	return pp.preprocessInto(dst, x, p, s)
}

// preprocess is PreprocessInto into a fresh slice on a pooled arena, for the
// once-per-rank master preparation (the series outlives the call; the
// full-rate intermediates go back to the pool the engine's threads draw on).
func (p InterferometryParams) preprocess(x []float64) ([]float64, error) {
	out := make([]float64, daslib.ResampleLen(len(x), p.ResampleP, p.ResampleQ))
	s := daslib.GetScratch()
	defer daslib.PutScratch(s)
	return out, p.PreprocessInto(out, x, s)
}

// RowLen returns the correlation row length for an input time extent nt.
func (p InterferometryParams) RowLen(nt int) int {
	m := daslib.ResampleLen(nt, p.ResampleP, p.ResampleQ)
	full := 2*m - 1
	if p.MaxLag > 0 && 2*p.MaxLag+1 < full {
		return 2*p.MaxLag + 1
	}
	return full
}

// Master holds the shared, per-node payload of the interferometry
// workload: the preprocessed master channel and the prepared correlation
// master — the per-block spectra every channel's cross-correlation reuses
// instead of re-transforming the master per channel. In pure MPI every rank
// holds its own copy — the memory pressure Figure 8 demonstrates.
type Master struct {
	Series []float64
	Corr   *daslib.XCorrMaster
}

// Bytes returns the payload's memory footprint.
func (m *Master) Bytes() int64 {
	b := int64(len(m.Series)) * 8
	if m.Corr != nil {
		b += m.Corr.Bytes()
	}
	return b
}

// readMasterRow reads one whole channel of the view — the master both
// interferometry workloads prepare from. Validate has bounded the channel
// against the view; Subset refuses one that was not.
func readMasterRow(v *dass.View, ch int, policy dass.FailPolicy) ([]float64, pfs.Trace, error) {
	sub, err := v.SubsetChannels(ch, ch+1)
	if err != nil {
		return nil, pfs.Trace{}, err
	}
	raw, tr, _, err := sub.ReadPolicy(policy)
	if err != nil {
		return nil, tr, err
	}
	return raw.Row(0), tr, nil
}

// PrepareMaster loads and preprocesses the master channel from the view.
// Every calling rank performs its own read — one per core in pure MPI, one
// per node in hybrid mode — which is exactly the paper's I/O-call argument.
func (p InterferometryParams) PrepareMaster(v *dass.View) (*Master, pfs.Trace, error) {
	raw, tr, err := readMasterRow(v, p.MasterChannel, p.failPolicy)
	if err != nil {
		return nil, tr, err
	}
	series, err := p.preprocess(raw)
	if err != nil {
		return nil, tr, err
	}
	return &Master{
		Series: series,
		Corr:   daslib.PrepareXCorrMasterLags(series, len(series), p.MaxLag),
	}, tr, nil
}

// Workload assembles Algorithm 3 as the rows workload the engine runs: per
// channel, the time-domain noise correlation with the master channel (lags
// ordered negative→positive, ±MaxLag) — preprocess into scratch, then the
// master correlates exactly the kept lags straight into the engine-owned
// row.
func (p InterferometryParams) Workload(nt int) arrayudf.Workload {
	resLen := daslib.ResampleLen(nt, p.ResampleP, p.ResampleQ)
	return arrayudf.Workload{
		RowLen: p.RowLen(nt),
		Prepare: func(c *mpi.Comm, v *dass.View) (any, int64, pfs.Trace) {
			m, tr, err := p.PrepareMaster(v)
			if err != nil {
				panic(fmt.Errorf("detect: prepare master: %w", err))
			}
			return m, m.Bytes(), tr
		},
		UDFInto: func(s *arrayudf.Stencil, shared any, dst []float64, scr *daslib.Scratch) {
			master := shared.(*Master)
			series := scr.Float(resLen)
			if err := p.PreprocessInto(series, s.Row(0), scr); err != nil {
				panic(fmt.Errorf("detect: preprocess: %w", err))
			}
			master.Corr.XCorrNormalizedInto(dst, series, scr)
			scr.ReleaseFloat(series)
		},
	}
}

// TrimLags cuts a full cross-correlation (length na+nb-1, zero lag at index
// nb-1) down to rowLen samples centered on zero lag — what a master prepared
// for MaxLag produces directly; the MATLAB-style baseline and the test
// oracles trim a full correlation instead.
func TrimLags(corr []float64, na, nb, rowLen int) []float64 {
	out := make([]float64, rowLen)
	if len(corr) <= rowLen {
		copy(out, corr)
		return out
	}
	copy(out, corr[daslib.XCorrLagStart(na, nb, rowLen):])
	return out
}

// Region is a detected event: a time interval (in output sample indices)
// with elevated similarity, plus the channel span where it was strongest.
type Region struct {
	TLo  int     `json:"t_lo"`
	THi  int     `json:"t_hi"`
	ChLo int     `json:"ch_lo"`
	ChHi int     `json:"ch_hi"`
	Peak float64 `json:"peak"`
}

// FindEvents scans a similarity map (channels × time) for intervals whose
// per-column mean similarity rises above the map's background by thresh
// standard deviations. It is used to verify that planted events (Fig. 10's
// vehicles and earthquake) are actually recovered.
func FindEvents(sim *dasf.Array2D, thresh float64) []Region {
	nt := sim.Samples
	if nt == 0 || sim.Channels == 0 {
		return nil
	}
	col := make([]float64, nt)
	for t := 0; t < nt; t++ {
		var s float64
		for c := 0; c < sim.Channels; c++ {
			s += sim.At(c, t)
		}
		col[t] = s / float64(sim.Channels)
	}
	var mean, sd float64
	for _, v := range col {
		mean += v
	}
	mean /= float64(nt)
	for _, v := range col {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(nt))
	cut := mean + thresh*sd
	var out []Region
	inEvent := false
	var cur Region
	for t := 0; t <= nt; t++ {
		hot := t < nt && col[t] > cut
		switch {
		case hot && !inEvent:
			inEvent = true
			cur = Region{TLo: t, Peak: col[t]}
		case hot && inEvent:
			cur.Peak = math.Max(cur.Peak, col[t])
		case !hot && inEvent:
			inEvent = false
			cur.THi = t
			cur.ChLo, cur.ChHi = hotChannels(sim, cur.TLo, cur.THi)
			out = append(out, cur)
		}
	}
	return out
}

// FindEventsBanded splits the channel axis into bands of bandWidth
// channels, runs the FindEvents scan inside each band, and merges
// detections that overlap in both time and channel span. Localized events
// — a vehicle covering a few percent of the fiber, a persistent vibration
// on a short segment — stand out inside their band even though they barely
// move the whole-array column mean that FindEvents uses.
func FindEventsBanded(sim *dasf.Array2D, thresh float64, bandWidth int) []Region {
	if sim.Channels == 0 || sim.Samples == 0 {
		return nil
	}
	if bandWidth <= 0 || bandWidth > sim.Channels {
		bandWidth = sim.Channels
	}
	var all []Region
	for lo := 0; lo < sim.Channels; lo += bandWidth {
		hi := min(lo+bandWidth, sim.Channels)
		band := &dasf.Array2D{
			Channels: hi - lo,
			Samples:  sim.Samples,
			Data:     sim.Data[lo*sim.Samples : hi*sim.Samples],
		}
		for _, r := range FindEvents(band, thresh) {
			r.ChLo += lo
			r.ChHi += lo
			all = append(all, r)
		}
	}
	// Allow one band of slack when merging: FindEvents refines each band's
	// channel span, which can leave gaps between a wide event's per-band
	// detections.
	return mergeRegions(all, bandWidth)
}

// mergeRegions coalesces regions that overlap in time and whose channel
// spans are within chSlack of touching, repeating until a fixed point (an
// earthquake detected in every band merges into one wide region).
func mergeRegions(regions []Region, chSlack int) []Region {
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				a, b := regions[i], regions[j]
				timeOverlap := a.TLo < b.THi && b.TLo < a.THi
				chTouch := a.ChLo <= b.ChHi+chSlack && b.ChLo <= a.ChHi+chSlack
				if !timeOverlap || !chTouch {
					continue
				}
				regions[i] = Region{
					TLo:  min(a.TLo, b.TLo),
					THi:  max(a.THi, b.THi),
					ChLo: min(a.ChLo, b.ChLo),
					ChHi: max(a.ChHi, b.ChHi),
					Peak: math.Max(a.Peak, b.Peak),
				}
				regions = append(regions[:j], regions[j+1:]...)
				merged = true
				j--
			}
		}
	}
	return regions
}

// hotChannels returns the channel span whose mean similarity inside
// [tLo,tHi) exceeds the per-channel median, i.e. where the event lives.
func hotChannels(sim *dasf.Array2D, tLo, tHi int) (lo, hi int) {
	nch := sim.Channels
	means := make([]float64, nch)
	for c := 0; c < nch; c++ {
		var s float64
		row := sim.Row(c)
		for t := tLo; t < tHi; t++ {
			s += row[t]
		}
		means[c] = s / float64(tHi-tLo)
	}
	var mean float64
	for _, v := range means {
		mean += v
	}
	mean /= float64(nch)
	lo, hi = nch, 0
	for c, v := range means {
		if v > mean {
			if c < lo {
				lo = c
			}
			if c+1 > hi {
				hi = c + 1
			}
		}
	}
	if lo >= hi {
		return 0, nch
	}
	return lo, hi
}
