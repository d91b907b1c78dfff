package dass

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/faults"
	"dassa/internal/omp"
	"dassa/internal/pfs"
	"dassa/internal/testutil/leakcheck"
)

// The block-read suite pins what the team fan-out promises: whatever the
// team size, and with or without a slab hook, a view read is the
// member-after-member read — same cells, same trace, same gaps.

// teamSizes are the fan-outs every property is checked at: serial, the
// benchmark's, one that does not divide the member count, and one wider
// than it.
var teamSizes = []int{1, 2, 3, 8}

// mixedView writes members of the given lengths cycling through every
// layout × dtype the reader decodes and returns a VCA-shaped view over them.
// Mixing dtypes is more than CreateVCA allows; the read path does not care.
func mixedView(t testing.TB, nch int, lengths []int) *View {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(int64(nch*1000 + len(lengths))))
	members := make([]dasf.Member, len(lengths))
	total := 0
	for i, nt := range lengths {
		a := dasf.NewArray2D(nch, nt)
		for k := range a.Data {
			a.Data[k] = math.Round(rng.NormFloat64()*64) / 64
		}
		path := filepath.Join(dir, fmt.Sprintf("m%02d.dasf", i))
		write, dtype := dasf.WriteData, dasf.Float32
		if i%4 >= 2 {
			write = dasf.WriteDataCompressed
		}
		if i%2 == 1 {
			dtype = dasf.Float64
		}
		if err := write(path, dasf.Meta{}, nil, a, dtype); err != nil {
			t.Fatal(err)
		}
		members[i] = dasf.Member{Name: path, NumChannels: nch, NumSamples: nt, Timestamp: int64(i)}
		total += nt
	}
	v, err := NewView(dasf.Info{Path: "<mixed>", Kind: dasf.KindVCA,
		NumChannels: nch, NumSamples: total, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// directHook is the slab hook a cache miss runs: open, ReadSlab, report the
// reader's stats.
func directHook(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
	r, err := dasf.OpenContext(ctx, path)
	if err != nil {
		return nil, dasf.IOStats{}, err
	}
	defer r.Close()
	a, err := r.ReadSlab(chLo, chHi, tLo, tHi)
	return a, r.Stats(), err
}

// oracleRead assembles the view's window from one ReadSlab per member.
func oracleRead(t *testing.T, v *View) *dasf.Array2D {
	t.Helper()
	chLo, chHi, tLo, tHi := v.Window()
	out := dasf.NewArray2D(chHi-chLo, tHi-tLo)
	at := 0
	for _, m := range v.Info().Members {
		lo, hi := max(tLo, at), min(tHi, at+m.NumSamples)
		if lo < hi {
			r, err := dasf.Open(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			part, err := r.ReadSlab(chLo, chHi, lo-at, hi-at)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < part.Channels; c++ {
				copy(out.Row(c)[lo-tLo:hi-tLo], part.Row(c))
			}
		}
		at += m.NumSamples
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestViewReadEqualsPerMemberOracle: random windows over a mixed-layout
// view, with and without a slab hook, at every team size — the output is
// bit-equal to the per-member ReadSlab oracle and the trace is the serial
// read's.
func TestViewReadEqualsPerMemberOracle(t *testing.T) {
	const nch = 7
	full := mixedView(t, nch, []int{30, 17, 1, 44, 30, 9, 30, 30, 12})
	_, nt := full.Shape()
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		chLo := rng.Intn(nch)
		chHi := chLo + 1 + rng.Intn(nch-chLo)
		tLo := rng.Intn(nt)
		tHi := tLo + 1 + rng.Intn(nt-tLo)
		if trial == 0 {
			chLo, chHi, tLo, tHi = 0, nch, 0, nt
		}
		sub, err := full.Subset(chLo, chHi, tLo, tHi)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRead(t, sub)
		for _, hooked := range []bool{false, true} {
			v := sub
			if hooked {
				v = sub.WithSlabReader(directHook)
			}
			_, serialTr, err := v.Read()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range teamSizes {
				got, tr, gaps, err := v.WithTeam(omp.NewTeam(n)).ReadPolicy(FailDegrade)
				if err != nil || len(gaps) != 0 {
					t.Fatalf("window [%d:%d)x[%d:%d) hook=%v team=%d: err=%v gaps=%v", chLo, chHi, tLo, tHi, hooked, n, err, gaps)
				}
				if got.Channels != want.Channels || got.Samples != want.Samples || !sameBits(got.Data, want.Data) {
					t.Fatalf("window [%d:%d)x[%d:%d) hook=%v team=%d: output differs from the per-member oracle", chLo, chHi, tLo, tHi, hooked, n)
				}
				if tr != serialTr {
					t.Fatalf("window [%d:%d)x[%d:%d) hook=%v team=%d: trace %+v, serial %+v", chLo, chHi, tLo, tHi, hooked, n, tr, serialTr)
				}
			}
		}
	}
}

// TestViewReadDegradeIsTeamInvariant: under a seeded injector (missing and
// corrupt members, transient streaks retried away) and FailDegrade, every
// team size reports the same gaps in member order, the same trace and
// QualityReport, and NaN on exactly the masked cells.
func TestViewReadDegradeIsTeamInvariant(t *testing.T) {
	const nch = 5
	lengths := []int{20, 20, 13, 20, 20, 20, 7, 20, 20, 20, 20, 20}
	v := mixedView(t, nch, lengths)
	clean := oracleRead(t, v)
	members := v.Info().Members
	cfg := faults.Config{Seed: 21, TransientProb: 0.4, MaxTransient: 2,
		Missing: []string{filepath.Base(members[2].Name), filepath.Base(members[9].Name)},
		Corrupt: []string{filepath.Base(members[5].Name), filepath.Base(members[6].Name)}}
	lost := map[int]bool{2: true, 5: true, 6: true, 9: true}

	type outcome struct {
		data *dasf.Array2D
		tr   pfs.Trace
		gaps []Gap
		q    *QualityReport
	}
	run := func(v *View, n int) outcome {
		// A fresh injector per run: streaks are state, draws are per path.
		installChaos(t, cfg, 3)
		data, tr, gaps, err := v.WithTeam(omp.NewTeam(n)).ReadPolicy(FailDegrade)
		if err != nil {
			t.Fatalf("team %d: %v", n, err)
		}
		return outcome{data, tr, gaps, BuildQuality(v, gaps, tr)}
	}
	for _, hooked := range []bool{false, true} {
		rv := v
		if hooked {
			rv = v.WithSlabReader(directHook)
		}
		ref := run(rv, 1)
		var wantGaps []Gap
		at := 0
		for i, nt := range lengths {
			if lost[i] {
				wantGaps = append(wantGaps, Gap{Member: i, File: members[i].Name, ChLo: 0, ChHi: nch, TLo: at, THi: at + nt})
			}
			at += nt
		}
		if !reflect.DeepEqual(ref.gaps, wantGaps) {
			t.Fatalf("hook=%v: gaps %+v, want %+v", hooked, ref.gaps, wantGaps)
		}
		if ref.tr.Retries == 0 {
			t.Fatalf("hook=%v: the schedule retried nothing; the test would not see a retry-order dependence", hooked)
		}
		masked := make([]bool, v.Info().NumSamples)
		for _, g := range wantGaps {
			for k := g.TLo; k < g.THi; k++ {
				masked[k] = true
			}
		}
		for c := 0; c < nch; c++ {
			for k, m := range masked {
				got := ref.data.At(c, k)
				if m != math.IsNaN(got) || (!m && math.Float64bits(got) != math.Float64bits(clean.At(c, k))) {
					t.Fatalf("hook=%v: cell (%d,%d) = %v, masked=%v, clean %v", hooked, c, k, got, m, clean.At(c, k))
				}
			}
		}
		for _, n := range teamSizes[1:] {
			got := run(rv, n)
			if !sameBits(got.data.Data, ref.data.Data) {
				t.Errorf("hook=%v team %d: data differs from the serial degraded read", hooked, n)
			}
			if got.tr != ref.tr {
				t.Errorf("hook=%v team %d: trace %+v, serial %+v", hooked, n, got.tr, ref.tr)
			}
			if !reflect.DeepEqual(got.gaps, ref.gaps) {
				t.Errorf("hook=%v team %d: gaps %+v, serial %+v", hooked, n, got.gaps, ref.gaps)
			}
			if !reflect.DeepEqual(got.q, ref.q) {
				t.Errorf("hook=%v team %d: quality %+v, serial %+v", hooked, n, got.q, ref.q)
			}
		}
	}
}

// TestViewReadMasksHalfFilledBand: a chunked member whose last chunks are
// damaged decodes its first channels straight into the block and then
// fails. Under FailDegrade its whole band — those rows included — is NaN and
// nothing else is; under FailAbort the read fails with the corruption.
func TestViewReadMasksHalfFilledBand(t *testing.T) {
	const nch, spf = 6, 16
	v := mixedView(t, nch, []int{spf, spf, spf, spf}) // member 2 is chunked float32
	clean := oracleRead(t, v)
	bad := v.Info().Members[2].Name
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) - 40; i < len(raw); i++ { // the last channels' chunks
		raw[i] = 0xff
	}
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The premise: the failed attempt really did write part of its band.
	r, err := dasf.Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, nch*spf)
	for i := range probe {
		probe[i] = -99
	}
	err = r.ReadSlabInto(probe, spf, 0, nch, 0, spf)
	r.Close()
	if !errors.Is(err, dasf.ErrCorrupt) || probe[0] == -99 || probe[len(probe)-1] != -99 {
		t.Fatalf("damaged member: err=%v first=%v last=%v; want a corruption after the first rows decoded", err, probe[0], probe[len(probe)-1])
	}

	for _, n := range teamSizes {
		tv := v.WithTeam(omp.NewTeam(n))
		got, tr, gaps, err := tv.ReadPolicy(FailDegrade)
		if err != nil || len(gaps) != 1 || gaps[0].Member != 2 {
			t.Fatalf("team %d: err=%v gaps=%+v", n, err, gaps)
		}
		if tr.MaskedSamples != nch*spf || tr.Faults != 1 {
			t.Fatalf("team %d: trace %+v", n, tr)
		}
		for c := 0; c < nch; c++ {
			for k := 0; k < 4*spf; k++ {
				in := k >= 2*spf && k < 3*spf
				if in != math.IsNaN(got.At(c, k)) || (!in && got.At(c, k) != clean.At(c, k)) {
					t.Fatalf("team %d: cell (%d,%d)=%v, in the lost band=%v", n, c, k, got.At(c, k), in)
				}
			}
		}
		if _, _, _, err := tv.ReadPolicy(FailAbort); !errors.Is(err, dasf.ErrCorrupt) {
			t.Fatalf("team %d: FailAbort returned %v, want the member's corruption", n, err)
		}
	}
}

// TestViewReadCancelMidRead cancels while the team is inside its members —
// parked in an injected straggler delay, or in a slab hook — under both
// policies and every team size: the read returns the context's error, no
// degraded result, and every thread has gone home.
func TestViewReadCancelMidRead(t *testing.T) {
	leakcheck.Check(t)
	v := mixedView(t, 4, []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10})
	for _, hooked := range []bool{false, true} {
		for _, policy := range []FailPolicy{FailAbort, FailDegrade} {
			for _, n := range teamSizes {
				ctx, cancel := context.WithCancel(context.Background())
				var calls atomic.Int32
				rv := v.WithContext(ctx).WithTeam(omp.NewTeam(n))
				if hooked {
					// The third member read cancels; later ones see it.
					rv = rv.WithSlabReader(func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
						if calls.Add(1) == 3 {
							cancel()
						}
						if err := ctx.Err(); err != nil {
							return nil, dasf.IOStats{}, err
						}
						return directHook(ctx, path, chLo, chHi, tLo, tHi)
					})
				} else {
					// Every read parks in a straggler delay until the cancel.
					installChaos(t, faults.Config{Seed: 4, SlowProb: 1, SlowLatency: 30 * time.Second}, 0)
					time.AfterFunc(20*time.Millisecond, cancel)
				}
				t0 := time.Now()
				out, _, gaps, err := rv.ReadPolicy(policy)
				cancel()
				dasf.SetInjector(nil)
				if !errors.Is(err, context.Canceled) || out != nil || gaps != nil {
					t.Fatalf("hook=%v policy=%v team=%d: out=%v gaps=%v err=%v, want only context.Canceled", hooked, policy, n, out != nil, gaps, err)
				}
				if d := time.Since(t0); d > 5*time.Second {
					t.Fatalf("hook=%v policy=%v team=%d: cancelled read took %v", hooked, policy, n, d)
				}
				if hooked && int(calls.Load()) > 3+n {
					t.Errorf("policy=%v team=%d: %d members read after the cancellation; threads should stop at their next member", policy, n, calls.Load()-3)
				}
			}
		}
	}
}

// TestViewReadAbortStopsTheTeam: under FailAbort one bad member ends the
// read with that member's error, and the other threads stop at their next
// member instead of reading the rest of the view.
func TestViewReadAbortStopsTheTeam(t *testing.T) {
	lengths := make([]int, 64)
	for i := range lengths {
		lengths[i] = 4
	}
	v := mixedView(t, 2, lengths)
	bad := v.Info().Members[0].Name
	var calls atomic.Int32
	hook := func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		calls.Add(1)
		if path == bad {
			return nil, dasf.IOStats{}, fmt.Errorf("%s: %w", path, dasf.ErrCorrupt)
		}
		// Let the failing thread get there first.
		time.Sleep(5 * time.Millisecond)
		return directHook(ctx, path, chLo, chHi, tLo, tHi)
	}
	_, _, _, err := v.WithSlabReader(hook).WithTeam(omp.NewTeam(4)).ReadPolicy(FailAbort)
	if !errors.Is(err, dasf.ErrCorrupt) {
		t.Fatalf("err = %v, want member 0's corruption", err)
	}
	if n := calls.Load(); n > 8 {
		t.Errorf("%d of 64 members were read after member 0 aborted the read", n)
	}
}

// TestViewReadAllocatesOneBlock: a 32-member read allocates the block and
// little else — no per-member array, no per-member raw buffer once the pool
// is warm. The bound is 1.05 × the block plus a per-member allowance for the
// reader, its metadata parse and the file handle. Under the race detector
// the pool forgets a quarter of the raw buffers (half a member's decoded
// size each), which the bound then has to admit; a per-member array or copy
// is a whole block more and fails either way.
func TestViewReadAllocatesOneBlock(t *testing.T) {
	const nch, spf, files = 32, 1000, 32
	lengths := make([]int, files)
	for i := range lengths {
		lengths[i] = spf
	}
	v := contiguousView(t, nch, lengths)
	blockBytes := uint64(nch * spf * files * 8)
	const perMember = 24 << 10
	for _, n := range []int{1, 2} {
		tv := v.WithTeam(omp.NewTeam(n))
		if _, _, err := tv.Read(); err != nil { // warm the buffer pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, _, err := tv.Read()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		limit := blockBytes + blockBytes/20 + files*perMember
		if raceBuild {
			limit += blockBytes / 4
		}
		t.Logf("team %d: %d bytes for a %d-byte block (limit %d)", n, got, blockBytes, limit)
		if got > limit {
			t.Errorf("team %d: View.Read allocated %d bytes for a %d-byte block (limit %d): something is copying per member again", n, got, blockBytes, limit)
		}
		runtime.KeepAlive(out)
	}
}

// contiguousView is a view over float32 contiguous members of the given
// lengths — the benchmark's record shape.
func contiguousView(t testing.TB, nch int, lengths []int) *View {
	t.Helper()
	dir := t.TempDir()
	entries := make([]Entry, len(lengths))
	for i, nt := range lengths {
		a := dasf.NewArray2D(nch, nt)
		for k := range a.Data {
			a.Data[k] = float64(i*7+k%251) / 8
		}
		path := filepath.Join(dir, fmt.Sprintf("c%03d.dasf", i))
		if err := dasf.WriteData(path, dasf.Meta{}, nil, a, dasf.Float32); err != nil {
			t.Fatal(err)
		}
		info, _, err := dasf.ReadInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = Entry{Path: path, Timestamp: int64(i), Info: info}
	}
	v, err := ViewOver(entries)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
