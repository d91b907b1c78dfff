package dass

import (
	"context"
	"fmt"
	"sync/atomic"

	"dassa/internal/dasf"
	"dassa/internal/obs/trace"
	"dassa/internal/omp"
	"dassa/internal/pfs"
)

// View is a logical array view (LAV, §IV): a channel × time rectangle over
// either a single data file or a virtually concatenated array. Views are
// cheap values — they carry only metadata — and can be subset repeatedly.
type View struct {
	info    dasf.Info
	offsets []int // member time offsets (VCA only), len = len(Members)+1
	chLo    int
	chHi    int
	tLo     int
	tHi     int
	// slab, when non-nil, replaces the direct open-and-read of member
	// hyperslabs — the hook a block cache plugs into (see WithSlabReader).
	slab SlabReaderFunc
	// ctx, when non-nil, bounds every read issued through the view: member
	// opens, slab reads, retry backoff, and the parallel readers' rank
	// loops all honor its cancellation (see WithContext). The parallel
	// readers record their read and exchange time into the phase recorder
	// it carries (obs.SpansFrom), if any.
	ctx context.Context
	// team, when non-nil, is the thread team a read fans the view's member
	// files over (see WithTeam); without one the same loop runs on a team
	// of one.
	team *omp.Team
}

// serialTeam reads a view that carries no team: member after member.
var serialTeam = omp.NewTeam(1)

// SlabReaderFunc reads the hyperslab [chLo,chHi)×[tLo,tHi) of one physical
// member file, returning the data and the physical I/O actually performed
// (zero stats for a cache hit). ctx is the requesting view's context (never
// nil); implementations must abandon the read when it is cancelled and
// return its error. Implementations must be safe for concurrent use: the
// parallel readers call the hook from many goroutines at once. The returned
// array may be shared between callers and must not be modified.
type SlabReaderFunc func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error)

// WithSlabReader returns a copy of the view whose member reads go through
// fn instead of opening files directly. Subsets of the returned view keep
// the hook. A nil fn restores direct reads.
func (v *View) WithSlabReader(fn SlabReaderFunc) *View {
	cp := *v
	cp.slab = fn
	return &cp
}

// WithContext returns a copy of the view bound to ctx: every read issued
// through the copy — and through subsets of it — honors the context's
// cancellation and deadline. A cancelled read always surfaces the context's
// error, even under FailDegrade: a half-cancelled request must fail loudly,
// never masquerade as a degraded-but-complete result. A nil ctx restores
// the unbounded default.
func (v *View) WithContext(ctx context.Context) *View {
	cp := *v
	cp.ctx = ctx
	return &cp
}

// WithTeam returns a copy of the view whose reads fan their member files
// over t: the engine hands the view the rank's thread team, so the threads
// that will compute on the block also decode it, each member straight into
// its own column band. Subsets keep the team; a nil t restores the serial
// read. The result of a read — data, trace, gaps — does not depend on the
// team's size.
func (v *View) WithTeam(t *omp.Team) *View {
	cp := *v
	cp.team = t
	return &cp
}

// Context returns the context the view is bound to (context.Background()
// when unbound). Never nil.
func (v *View) Context() context.Context {
	if v.ctx == nil {
		return context.Background()
	}
	return v.ctx
}

// ViewOver builds a VCA-shaped view over the entries entirely in memory —
// no virtual file is written. This is what an always-on service wants: the
// per-request window over its live catalog, with nothing to clean up.
// Entries must form a mergeable series (same channels and dtype,
// non-decreasing timestamps), exactly like CreateVCA. The shape they declare
// sizes the block a read allocates, and may come from a frame: it is bounded
// by division against dasf.MaxArrayElements before anything adds or
// multiplies it.
func ViewOver(entries []Entry) (*View, error) {
	if err := validateContiguous(entries); err != nil {
		return nil, err
	}
	nch := entries[0].Info.NumChannels
	if nch <= 0 {
		return nil, fmt.Errorf("dass: %s declares %d channels", entries[0].Path, nch)
	}
	total := 0
	for _, e := range entries {
		if n := e.Info.NumSamples; n <= 0 || int64(n) > dasf.MaxArrayElements/int64(nch)-int64(total) {
			return nil, fmt.Errorf("dass: %s declares %d samples: the %d-channel series would pass the element cap",
				e.Path, n, nch)
		}
		total += e.Info.NumSamples
	}
	if len(entries) == 1 {
		return NewView(entries[0].Info)
	}
	members := make([]dasf.Member, len(entries))
	for i, e := range entries {
		members[i] = dasf.Member{
			Name:        e.Path,
			NumChannels: e.Info.NumChannels,
			NumSamples:  e.Info.NumSamples,
			Timestamp:   e.Timestamp,
		}
	}
	info := dasf.Info{
		Path:        fmt.Sprintf("<memory VCA of %d files>", len(entries)),
		Kind:        dasf.KindVCA,
		Global:      entries[0].Info.Global.Clone(),
		NumChannels: nch,
		NumSamples:  total,
		DType:       entries[0].Info.DType,
		Members:     members,
	}
	return NewView(info)
}

// OpenView opens a DASF file (data or VCA) as a full-extent view.
func OpenView(path string) (*View, error) {
	info, _, err := dasf.ReadInfo(path)
	if err != nil {
		return nil, err
	}
	return NewView(info)
}

// NewView wraps already-parsed file metadata as a full-extent view.
func NewView(info dasf.Info) (*View, error) {
	v := &View{info: info, chHi: info.NumChannels, tHi: info.NumSamples}
	if info.Kind == dasf.KindVCA {
		v.offsets = make([]int, len(info.Members)+1)
		for i, m := range info.Members {
			v.offsets[i+1] = v.offsets[i] + m.NumSamples
		}
		if v.offsets[len(info.Members)] != info.NumSamples {
			return nil, fmt.Errorf("dass: %s: member extents sum to %d, VCA declares %d",
				info.Path, v.offsets[len(info.Members)], info.NumSamples)
		}
	}
	return v, nil
}

// Subset returns the logical sub-view [chLo,chHi) × [tLo,tHi), with indices
// relative to v.
func (v *View) Subset(chLo, chHi, tLo, tHi int) (*View, error) {
	nch, nt := v.Shape()
	if chLo < 0 || chHi > nch || chLo >= chHi || tLo < 0 || tHi > nt || tLo >= tHi {
		return nil, fmt.Errorf("dass: subset [%d:%d)×[%d:%d) out of view bounds %d×%d",
			chLo, chHi, tLo, tHi, nch, nt)
	}
	sub := *v
	sub.chLo = v.chLo + chLo
	sub.chHi = v.chLo + chHi
	sub.tLo = v.tLo + tLo
	sub.tHi = v.tLo + tHi
	return &sub, nil
}

// SubsetChannels keeps channels [chLo, chHi) over the full time extent.
func (v *View) SubsetChannels(chLo, chHi int) (*View, error) {
	_, nt := v.Shape()
	return v.Subset(chLo, chHi, 0, nt)
}

// Shape returns the view's extent (channels, samples).
func (v *View) Shape() (nch, nt int) { return v.chHi - v.chLo, v.tHi - v.tLo }

// Window returns the view's rectangle in the underlying file set's absolute
// coordinates: channels [chLo, chHi) × samples [tLo, tHi) over the (virtual)
// concatenated array. A distributed coordinator ships these bounds to
// workers, which rebuild the full-extent view from member metadata and
// subset back to the same window.
func (v *View) Window() (chLo, chHi, tLo, tHi int) {
	return v.chLo, v.chHi, v.tLo, v.tHi
}

// Info returns the underlying file metadata.
func (v *View) Info() dasf.Info { return v.info }

// IsVCA reports whether the view is backed by a virtual file.
func (v *View) IsVCA() bool { return v.info.Kind == dasf.KindVCA }

// NumMembers returns how many physical files back the view.
func (v *View) NumMembers() int {
	if v.IsVCA() {
		return len(v.info.Members)
	}
	return 1
}

// memberSpan describes the part of one member file a time range covers.
type memberSpan struct {
	idx     int // member index
	tLo     int // local time range inside the member
	tHi     int
	destOff int // where this span starts in the output, relative to v.tLo
}

// memberSpans routes the view's global time range onto member files.
func (v *View) memberSpans() []memberSpan {
	if !v.IsVCA() {
		return []memberSpan{{idx: 0, tLo: v.tLo, tHi: v.tHi, destOff: 0}}
	}
	var spans []memberSpan
	for i := range v.info.Members {
		mLo, mHi := v.offsets[i], v.offsets[i+1]
		lo := max(v.tLo, mLo)
		hi := min(v.tHi, mHi)
		if lo >= hi {
			continue
		}
		spans = append(spans, memberSpan{idx: i, tLo: lo - mLo, tHi: hi - mLo, destOff: lo - v.tLo})
	}
	return spans
}

// memberPath returns the physical path of member i (or the file itself).
func (v *View) memberPath(i int) string {
	if v.IsVCA() {
		return v.info.Members[i].Name
	}
	return v.info.Path
}

// Read reads the whole view sequentially (single process) and returns the
// data plus the physical I/O trace. A view over a VCA opens each member it
// touches — the cost the communication-avoiding parallel reader exists to
// amortize. The first failed member aborts the read (FailAbort semantics).
func (v *View) Read() (*dasf.Array2D, pfs.Trace, error) {
	out, tr, _, err := v.ReadPolicy(FailAbort)
	return out, tr, err
}

// ReadPolicy is Read with an explicit fail policy. Under FailDegrade a
// member that stays bad after retries is masked with NaN over its time span
// (all view channels) and reported as a Gap in view-relative coordinates;
// the error return is then always nil — except for cancellation, which is
// returned as an error under either policy (see WithContext). When the
// view's context carries a request trace, the read lands in it as a
// "dass.read" span.
func (v *View) ReadPolicy(policy FailPolicy) (*dasf.Array2D, pfs.Trace, []Gap, error) {
	_, sp := trace.Start(v.Context(), "dass.read")
	spans := v.memberSpans()
	team := v.team
	if team == nil {
		team = serialTeam
	}
	out, tr, gaps, err := v.readSpans(spans, team, policy)
	if sp != nil {
		sp.SetAttrInt("bytes_read", tr.BytesRead)
		sp.SetAttrInt("gaps", int64(len(gaps)))
		sp.SetAttrInt("members", int64(len(spans)))
		sp.SetAttrInt("threads", int64(min(team.Threads(), len(spans))))
	}
	sp.EndErr(err)
	return out, tr, gaps, err
}

// readSpans is the block read: the output is allocated once and every member
// span decodes into its own column band of it, the spans fanned over the
// team. Bands are disjoint, so threads share nothing but the stop flag; what
// each span did (trace, error) is kept by span index and folded afterwards
// in member order, so the trace, the gap list and the NaN mask are those of
// the member-after-member loop whatever the team size.
func (v *View) readSpans(spans []memberSpan, team *omp.Team, policy FailPolicy) (*dasf.Array2D, pfs.Trace, []Gap, error) {
	nch, nt := v.Shape()
	out := dasf.NewArray2D(nch, nt)
	done := make([]struct {
		tr  pfs.Trace
		err error
	}, len(spans))
	var stop atomic.Bool
	team.For(len(spans), func(i int) {
		if stop.Load() {
			return // a span elsewhere has ended the read; the fold finds its error
		}
		o := &done[i]
		if o.err = v.Context().Err(); o.err == nil {
			o.err = v.readMemberSpan(spans[i], out.Data[spans[i].destOff:], nt, &o.tr)
		}
		if o.err != nil && policy.fatal(o.err) {
			stop.Store(true)
		}
	})
	tr := pfs.Trace{Processes: 1}
	for i := range done {
		tr.Add(done[i].tr)
	}
	var gaps []Gap
	for i, o := range done {
		if o.err == nil {
			continue
		}
		if policy.fatal(o.err) {
			return nil, tr, nil, o.err
		}
		gaps = append(gaps, v.maskSpan(spans[i], out.Data[spans[i].destOff:], nt, &tr))
	}
	return out, tr, gaps, nil
}
