package dass

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"sort"
	"strings"

	"dassa/internal/dasf"
	"dassa/internal/pfs"
)

// ErrMissingMember classifies a VCA member file that does not exist (deleted
// from the archive, or injected missing). It wraps the underlying not-exist
// error, so errors.Is(err, ErrMissingMember) and errors.Is(err,
// fs.ErrNotExist) both hold.
var ErrMissingMember = errors.New("dass: missing VCA member")

// FailPolicy decides what a reader does when a member file stays bad after
// all retries are spent.
type FailPolicy int

const (
	// FailAbort poisons the whole world on the first permanently failed
	// member — the seed repository's behaviour, and the right call when a
	// partial answer is worse than none.
	FailAbort FailPolicy = iota
	// FailDegrade masks the failed member's span with NaN, records the loss
	// in a QualityReport, and lets every surviving channel produce its exact
	// fault-free result.
	FailDegrade
)

func (p FailPolicy) String() string {
	if p == FailDegrade {
		return "degrade"
	}
	return "abort"
}

// ParseFailPolicy parses the -fail-policy flag grammar.
func ParseFailPolicy(s string) (FailPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "abort", "":
		return FailAbort, nil
	case "degrade":
		return FailDegrade, nil
	}
	return FailAbort, fmt.Errorf("dass: unknown fail policy %q (want abort or degrade)", s)
}

// Gap is one NaN-masked rectangle of a degraded read, in view-relative
// coordinates: channels [ChLo, ChHi) over samples [TLo, THi) were lost
// because File stayed unreadable after retries.
type Gap struct {
	Member     int    // member index within the view's VCA (0 for plain files)
	File       string // physical path of the lost member
	ChLo, ChHi int
	TLo, THi   int
}

// Samples returns how many array cells the gap masks.
func (g Gap) Samples() int64 {
	return int64(g.ChHi-g.ChLo) * int64(g.THi-g.TLo)
}

// gapInts is the number of int64 fields one gap flattens to for an MPI
// gather (the file path is recovered from the member index on rank 0).
const gapInts = 5

func encodeGaps(gaps []Gap) []int64 {
	out := make([]int64, 0, len(gaps)*gapInts)
	for _, g := range gaps {
		out = append(out, int64(g.Member), int64(g.ChLo), int64(g.ChHi), int64(g.TLo), int64(g.THi))
	}
	return out
}

func decodeGaps(flat []int64, v *View) []Gap {
	gaps := make([]Gap, 0, len(flat)/gapInts)
	for i := 0; i+gapInts <= len(flat); i += gapInts {
		g := Gap{
			Member: int(flat[i]),
			ChLo:   int(flat[i+1]), ChHi: int(flat[i+2]),
			TLo: int(flat[i+3]), THi: int(flat[i+4]),
		}
		g.File = v.memberPath(g.Member)
		gaps = append(gaps, g)
	}
	return gaps
}

// QualityReport is the per-run account of what a degraded read lost and what
// the retry layer spent. A nil report (or one with no gaps) means every byte
// was read clean.
type QualityReport struct {
	// Gaps lists the masked rectangles, sorted by member then channel.
	Gaps []Gap
	// LostFiles are the distinct member paths that stayed bad, sorted.
	LostFiles []string
	// LostChannels counts distinct view channels with at least one masked
	// sample; LostSamples counts distinct masked cells. Overlapping gaps —
	// two ranks whose ghost reads cover the same member span report it
	// twice — are merged, so neither counter double-counts.
	LostChannels int
	LostSamples  int64
	// Retries, Faults and SlowReads echo the run's robustness trace counters.
	Retries   int64
	Faults    int64
	SlowReads int64
}

// Degraded reports whether any data was lost.
func (q *QualityReport) Degraded() bool { return q != nil && len(q.Gaps) > 0 }

func (q *QualityReport) String() string {
	if !q.Degraded() {
		return "quality: clean (no data lost)"
	}
	return fmt.Sprintf("quality: DEGRADED lostFiles=%d lostChannels=%d lostSamples=%d retries=%d faults=%d slow=%d",
		len(q.LostFiles), q.LostChannels, q.LostSamples, q.Retries, q.Faults, q.SlowReads)
}

// buildReport assembles a QualityReport from decoded gaps, the view shape,
// and the already-reduced trace.
func buildReport(gaps []Gap, v *View, tr pfs.Trace) *QualityReport {
	q := &QualityReport{
		Gaps:    gaps,
		Retries: tr.Retries, Faults: tr.Faults, SlowReads: tr.SlowReads,
	}
	sort.Slice(q.Gaps, func(i, j int) bool {
		a, b := q.Gaps[i], q.Gaps[j]
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		return a.ChLo < b.ChLo
	})
	nch, _ := v.Shape()
	lost := make([]bool, nch)
	files := map[string]bool{}
	for _, g := range q.Gaps {
		files[g.File] = true
		for c := g.ChLo; c < g.ChHi && c < nch; c++ {
			lost[c] = true
		}
	}
	// Count distinct masked cells channel by channel, merging overlapping
	// time intervals so a span reported by several ranks counts once.
	for c, l := range lost {
		if !l {
			continue
		}
		q.LostChannels++
		var ivs [][2]int
		for _, g := range q.Gaps {
			if g.ChLo <= c && c < g.ChHi {
				ivs = append(ivs, [2]int{g.TLo, g.THi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		end := 0
		for _, iv := range ivs {
			lo := max(iv[0], end)
			if iv[1] > lo {
				q.LostSamples += int64(iv[1] - lo)
				end = iv[1]
			}
		}
	}
	for f := range files {
		q.LostFiles = append(q.LostFiles, f)
	}
	sort.Strings(q.LostFiles)
	return q
}

// BuildQuality assembles a QualityReport from view-relative gaps and an
// already-reduced trace — the merge step a distributed coordinator shares
// with the in-process GatherQuality collective: remote shards report gaps
// over the wire, and rank 0's accounting (overlap merging, per-channel and
// per-file loss counts) happens identically here.
func BuildQuality(v *View, gaps []Gap, tr pfs.Trace) *QualityReport {
	return buildReport(gaps, v, tr)
}

// ShardGaps returns the gaps a wholly lost channel shard [chLo, chHi)
// (view-relative) leaves behind: one NaN rectangle per member file the
// view's time window touches, covering the shard's full time extent. This
// is what a coordinator records when a shard's worker died and no healthy
// peer could take the re-dispatch — the distributed analogue of a failed
// local rank's member gaps.
func ShardGaps(v *View, chLo, chHi int) []Gap {
	var gaps []Gap
	for _, sp := range v.memberSpans() {
		gaps = append(gaps, Gap{
			Member: sp.idx, File: v.memberPath(sp.idx),
			ChLo: chLo, ChHi: chHi,
			TLo: sp.destOff, THi: sp.destOff + (sp.tHi - sp.tLo),
		})
	}
	return gaps
}

// addStats folds a reader's physical I/O counters — robustness counters
// included — into a trace.
func addStats(tr *pfs.Trace, st dasf.IOStats) {
	tr.Opens += st.Opens
	tr.Reads += st.Reads
	tr.BytesRead += st.BytesRead
	tr.Retries += st.Retries
	tr.Faults += st.FaultsInjected
	tr.SlowReads += st.SlowReads
}

// maskSpan is the degrade step every reader shares: the member span's band
// of dst (nch rows at stride, as readMemberSpan would have filled it) is set
// to NaN — the in-band "no data here" marker the detect kernels skip over —
// whatever a failed attempt left there, and the loss is returned as a Gap
// and counted in tr.
func (v *View) maskSpan(sp memberSpan, dst []float64, stride int, tr *pfs.Trace) Gap {
	nch, _ := v.Shape()
	width := sp.tHi - sp.tLo
	nan := math.NaN()
	for c := 0; c < nch; c++ {
		row := dst[c*stride : c*stride+width]
		for t := range row {
			row[t] = nan
		}
	}
	g := Gap{Member: sp.idx, File: v.memberPath(sp.idx),
		ChLo: 0, ChHi: nch, TLo: sp.destOff, THi: sp.destOff + width}
	tr.MaskedSamples += g.Samples()
	return g
}

// IsCancellation reports whether err stems from a cancelled or expired
// context. Cancellation is categorically different from a bad member:
// FailDegrade masks bad members and carries on, but a cancellation must
// abort the read under either policy — the caller asked for the stop.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fatal reports whether a member read error ends the whole read under the
// policy: any error under FailAbort, and cancellation under either.
func (p FailPolicy) fatal(err error) bool { return p == FailAbort || IsCancellation(err) }

// classifyMemberErr wraps a member read failure with the right sentinel so
// callers can branch with errors.Is.
func classifyMemberErr(path string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		// Double-wrap so both the dass sentinel and fs.ErrNotExist stay
		// visible to errors.Is.
		return fmt.Errorf("%w: %s: %w", ErrMissingMember, path, err)
	}
	return err
}

// readMemberSpan reads one member's slab for the view's channel range into
// dst — channel row c at dst[c*stride:], the span's width wide — folding
// physical stats into tr. Without a slab hook the member is opened and
// decoded in place; with one (WithSlabReader) the hook does the physical
// read and its array, which may be shared, is copied out row by row. On
// failure the error is classified and the band's content is unspecified;
// the caller decides (by policy) whether to abort or mask.
func (v *View) readMemberSpan(sp memberSpan, dst []float64, stride int, tr *pfs.Trace) error {
	path := v.memberPath(sp.idx)
	var err error
	if v.slab != nil {
		var part *dasf.Array2D
		var st dasf.IOStats
		part, st, err = v.slab(v.Context(), path, v.chLo, v.chHi, sp.tLo, sp.tHi)
		addStats(tr, st)
		if err == nil {
			for c := 0; c < part.Channels; c++ {
				copy(dst[c*stride:c*stride+part.Samples], part.Row(c))
			}
		}
	} else {
		var r *dasf.Reader
		if r, err = dasf.OpenContext(v.Context(), path); err == nil {
			err = r.ReadSlabInto(dst, stride, v.chLo, v.chHi, sp.tLo, sp.tHi)
			addStats(tr, r.Stats())
			r.Close()
		}
	}
	if err != nil {
		tr.Faults++
		return classifyMemberErr(path, err)
	}
	return nil
}
